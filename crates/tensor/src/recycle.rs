//! Reuse of large tensor buffers within a scope.
//!
//! A training loop builds the same graph every iteration: the same ops on
//! the same shapes. On the block layout its tensors are megabytes each,
//! and the allocator hands such buffers back to the system when the
//! graph is dropped, so every iteration paid again for fresh, zeroed
//! pages: page faults were about a fifth of a batched PPO update. Inside
//! [`recycling`], the data and gradient buffers of dropped tensors stay on
//! their thread, and new tensors take them.

use std::cell::RefCell;

/// Buffers of fewer floats than this (128 KiB) are left to the allocator.
const LARGE: usize = 1 << 15;

thread_local! {
    /// The buffers kept for reuse: `None` outside a [`recycling`] scope.
    static FREE: RefCell<Option<Vec<Vec<f32>>>> = const { RefCell::new(None) };
}

/// Runs `f` with the large buffers of the tensors dropped on this thread
/// kept for the tensors it creates next. Tensor values do not depend on
/// it. The kept buffers are freed when `f` returns or unwinds.
///
/// # Examples
///
/// ```
/// use nptsn_tensor::{recycling, Tensor};
///
/// let w = Tensor::param(256, 256, vec![0.5; 256 * 256]);
/// let grads = recycling(|| {
///     (0..3)
///         .map(|_| {
///             w.zero_grad();
///             w.square().mean().backward();
///             w.grad()[0]
///         })
///         .collect::<Vec<_>>()
/// });
/// assert_eq!(grads, vec![grads[0]; 3]);
/// ```
pub fn recycling<R>(f: impl FnOnce() -> R) -> R {
    /// Puts the enclosing scope's buffers back, or none outside a scope.
    struct Restore(Option<Vec<Vec<f32>>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            let _ = FREE.try_with(|free| *free.borrow_mut() = outer);
        }
    }
    let _restore = Restore(FREE.with(|free| free.borrow_mut().replace(Vec::new())));
    f()
}

/// Keeps `buffer` for reuse when it is large and a scope is open.
pub(crate) fn give_back(buffer: Vec<f32>) {
    if buffer.capacity() >= LARGE {
        let _ = FREE.try_with(|free| {
            if let Some(kept) = free.borrow_mut().as_mut() {
                kept.push(buffer);
            }
        });
    }
}

/// A kept buffer that holds `len` floats, if there is one, with its
/// old contents.
fn take(len: usize) -> Option<Vec<f32>> {
    if len < LARGE {
        return None;
    }
    FREE.try_with(|free| {
        let mut free = free.borrow_mut();
        let kept = free.as_mut()?;
        // The smallest that fits, so that a large buffer is not spent on
        // a smaller tensor that another one would fit.
        let (i, _) = kept
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())?;
        Some(kept.swap_remove(i))
    })
    .ok()
    .flatten()
}

/// `len` zeros, in a kept buffer when there is one.
pub(crate) fn zeroed(len: usize) -> Vec<f32> {
    match take(len) {
        Some(mut buffer) => {
            buffer.clear();
            buffer.resize(len, 0.0);
            buffer
        }
        None => vec![0.0; len],
    }
}

/// `len` floats for a kernel to overwrite: a kept buffer with whatever it
/// held when there is one, zeros otherwise.
pub(crate) fn overwritten(len: usize) -> Vec<f32> {
    match take(len) {
        Some(mut buffer) => {
            buffer.resize(len, 0.0);
            buffer
        }
        None => vec![0.0; len],
    }
}

/// A copy of `values`, in a kept buffer when there is one.
pub(crate) fn copied(values: &[f32]) -> Vec<f32> {
    match take(values.len()) {
        Some(mut buffer) => {
            buffer.clear();
            buffer.extend_from_slice(values);
            buffer
        }
        None => values.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_kept_only_inside_a_scope() {
        give_back(vec![0.0; LARGE]);
        assert!(take(LARGE).is_none(), "nothing is kept outside a scope");
        recycling(|| {
            let buffer = vec![1.0; 2 * LARGE];
            let address = buffer.as_ptr();
            give_back(buffer);
            give_back(vec![0.0; LARGE - 1]);
            let reused = zeroed(LARGE + 1);
            assert_eq!(reused.as_ptr(), address, "the kept buffer is reused");
            assert!(reused.iter().all(|&v| v == 0.0));
            assert!(take(LARGE).is_none(), "small buffers are not kept");
            recycling(|| give_back(vec![0.0; LARGE]));
            assert!(take(LARGE).is_none(), "an inner scope frees its own");
            give_back(reused);
            assert_eq!(copied(&[2.0; LARGE]), vec![2.0; LARGE]);
        });
        assert!(take(LARGE).is_none(), "the scope freed its buffers");
    }
}
