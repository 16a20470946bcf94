//! Parameter checkpointing: serialize trained weights to bytes and back.
//!
//! The planner trains one policy per planning problem; checkpoints let a
//! deployment save the best policy next to the chosen topology, resume a
//! long ORION run, or ship weights between machines. The format is a
//! deliberately simple self-describing little-endian layout — no external
//! serialization dependency required:
//!
//! ```text
//! +--------------------+  "NPTSNCK" + ASCII version digit ('2')
//! | magic      8 bytes |
//! +--------------------+
//! | count      u64 LE  |  number of tensors
//! +--------------------+
//! | rows       u64 LE  |\
//! | cols       u64 LE  | > repeated `count` times
//! | data  f32 LE × r·c |/
//! +--------------------+
//! | crc32      u32 LE  |  IEEE CRC-32 of every preceding byte
//! +--------------------+
//! ```
//!
//! The trailing checksum makes silent corruption (a flipped bit on disk, a
//! partially flushed write) a detectable [`CheckpointError::BadChecksum`]
//! instead of garbage weights; truncated streams fail structurally with
//! [`CheckpointError::Truncated`]. Version-1 checkpoints (no trailer) are
//! rejected with [`CheckpointError::UnsupportedVersion`] rather than
//! misread. For crash-safe persistence use [`write_checkpoint`], which
//! writes a temporary file, fsyncs it, and renames it into place so the
//! destination always holds either the old or the new checkpoint in full;
//! [`read_checkpoint`] reads one back.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;

use nptsn_obs::crc32;
use nptsn_tensor::Tensor;

/// Magic prefix of the checkpoint format, excluding the version digit.
const MAGIC_PREFIX: &[u8; 7] = b"NPTSNCK";

/// Current format version (an ASCII digit, making the full magic
/// `NPTSNCK2`).
const VERSION: u8 = b'2';

/// Errors from [`params_from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream does not start with the checkpoint magic.
    BadMagic,
    /// The stream carries the checkpoint magic but a format version this
    /// build cannot read (e.g. a pre-checksum `NPTSNCK1` file).
    UnsupportedVersion {
        /// The raw version byte found in the stream.
        found: u8,
    },
    /// The stream ended before the declared contents.
    Truncated,
    /// The checkpoint's tensor count or shapes do not match the target
    /// parameter list.
    ShapeMismatch {
        /// Index of the first mismatching tensor (or count mismatch).
        index: usize,
    },
    /// Trailing bytes after the declared contents.
    TrailingBytes,
    /// The CRC-32 trailer does not match the stream contents: the
    /// checkpoint was corrupted after it was written.
    BadChecksum {
        /// The checksum declared in the trailer.
        expected: u32,
        /// The checksum of the bytes actually present.
        actual: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => f.write_str("not an NPTSN checkpoint"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version byte 0x{found:02x}")
            }
            CheckpointError::Truncated => f.write_str("checkpoint is truncated"),
            CheckpointError::ShapeMismatch { index } => {
                write!(f, "checkpoint shape mismatch at tensor {index}")
            }
            CheckpointError::TrailingBytes => f.write_str("trailing bytes after checkpoint"),
            CheckpointError::BadChecksum { expected, actual } => {
                write!(f, "checkpoint checksum mismatch: stored {expected:#010x}, computed {actual:#010x}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes a parameter list into a checkpoint byte vector.
///
/// # Examples
///
/// ```
/// use nptsn_nn::{params_from_bytes, params_to_bytes};
/// use nptsn_tensor::Tensor;
///
/// let w = Tensor::param(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let bytes = params_to_bytes(&[w.clone()]);
/// w.set_data(&[0.0; 4]);
/// params_from_bytes(&[w.clone()], &bytes).unwrap();
/// assert_eq!(w.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
/// ```
pub fn params_to_bytes(params: &[Tensor]) -> Vec<u8> {
    let payload: usize = params.iter().map(|p| 16 + 4 * p.len()).sum();
    let mut out = Vec::with_capacity(8 + 8 + payload + 4);
    out.extend_from_slice(MAGIC_PREFIX);
    out.push(VERSION);
    out.extend_from_slice(&(params.len() as u64).to_le_bytes());
    for p in params {
        out.extend_from_slice(&(p.rows() as u64).to_le_bytes());
        out.extend_from_slice(&(p.cols() as u64).to_le_bytes());
        for v in p.data().iter() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Restores a checkpoint produced by [`params_to_bytes`] into `params`
/// (which must have the same count and shapes, e.g. a freshly constructed
/// network of the same configuration).
///
/// # Errors
///
/// Returns a [`CheckpointError`] describing the first structural problem;
/// on error the target parameters are left untouched. Structural errors
/// (bad magic, unsupported version, truncation, shape mismatch) are
/// reported before the checksum, so [`CheckpointError::BadChecksum`]
/// specifically means "structurally plausible but corrupted in place".
/// A tensor's shape is compared before its payload is taken, so a
/// mismatched shape reports as [`CheckpointError::ShapeMismatch`] even
/// when the stream is also too short for it.
pub fn params_from_bytes(params: &[Tensor], bytes: &[u8]) -> Result<(), CheckpointError> {
    let (mut frames, count) = Frames::open(bytes)?;
    let count = count as usize;
    if count != params.len() {
        return Err(CheckpointError::ShapeMismatch { index: count.min(params.len()) });
    }
    // First pass: decode and validate fully before mutating anything.
    let mut decoded: Vec<Vec<f32>> = Vec::with_capacity(count);
    for (i, p) in params.iter().enumerate() {
        let shape = frames.shape()?;
        if shape != p.shape() {
            return Err(CheckpointError::ShapeMismatch { index: i });
        }
        let raw = frames.payload(shape)?;
        decoded.push(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
        );
    }
    frames.finish()?;
    for (p, d) in params.iter().zip(decoded) {
        p.set_data(&d);
    }
    Ok(())
}

/// Structurally validates a checkpoint byte stream *without* a target
/// parameter list: checks the magic, version, framing and the CRC-32
/// trailer, and returns the declared tensor shapes in order.
///
/// This is the ingestion guard of the serving layer: an uploaded
/// checkpoint is validated (and its shapes compared against the policy the
/// problem implies) before any network parameters are touched, so a
/// truncated body or flipped bit maps to a clean client error instead of
/// a partially restored model.
///
/// # Errors
///
/// The same [`CheckpointError`] taxonomy as [`params_from_bytes`], except
/// that `ShapeMismatch` cannot occur (there is no target to mismatch);
/// declared sizes that exceed the stream report as
/// [`CheckpointError::Truncated`].
pub fn checkpoint_shapes(bytes: &[u8]) -> Result<Vec<(usize, usize)>, CheckpointError> {
    let (mut frames, count) = Frames::open(bytes)?;
    // Each tensor needs at least its 16-byte shape header, so a declared
    // count beyond that bound is a truncation (or a hostile header), not a
    // reason to allocate.
    if count > (frames.cursor.len() / 16) as u64 {
        return Err(CheckpointError::Truncated);
    }
    let mut shapes = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let shape = frames.shape()?;
        frames.payload(shape)?;
        shapes.push(shape);
    }
    frames.finish()?;
    Ok(shapes)
}

/// The one walk over an `NPTSNCK2` stream that both decoders share:
/// [`open`](Frames::open) checks magic and version and reads the tensor
/// count, then each tensor is a [`shape`](Frames::shape) followed by its
/// [`payload`](Frames::payload), and [`finish`](Frames::finish) rejects
/// trailing bytes before it checks the CRC trailer.
struct Frames<'a> {
    /// Everything before the CRC trailer: what the checksum covers.
    body: &'a [u8],
    trailer: &'a [u8],
    /// The unread rest of `body`.
    cursor: &'a [u8],
}

impl<'a> Frames<'a> {
    fn open(bytes: &'a [u8]) -> Result<(Frames<'a>, u64), CheckpointError> {
        if bytes.len() < 8 {
            // A prefix of the magic reads as a torn write, anything else as
            // a foreign format.
            return if MAGIC_PREFIX.starts_with(&bytes[..bytes.len().min(7)]) {
                Err(CheckpointError::Truncated)
            } else {
                Err(CheckpointError::BadMagic)
            };
        }
        if &bytes[..7] != MAGIC_PREFIX {
            return Err(CheckpointError::BadMagic);
        }
        if bytes[7] != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: bytes[7] });
        }
        if bytes.len() < 8 + 8 + 4 {
            return Err(CheckpointError::Truncated);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let mut frames = Frames { body, trailer, cursor: &body[8..] };
        let count = frames.u64()?;
        Ok((frames, count))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.cursor.len() < n {
            return Err(CheckpointError::Truncated);
        }
        let (head, tail) = self.cursor.split_at(n);
        self.cursor = tail;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The next tensor's `(rows, cols)` header.
    fn shape(&mut self) -> Result<(usize, usize), CheckpointError> {
        Ok((self.u64()? as usize, self.u64()? as usize))
    }

    /// The `f32` payload of a tensor of `shape`. A size that overflows is
    /// as much a truncation as one that exceeds the stream.
    fn payload(&mut self, (rows, cols): (usize, usize)) -> Result<&'a [u8], CheckpointError> {
        let len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or(CheckpointError::Truncated)?;
        self.take(len)
    }

    fn finish(self) -> Result<(), CheckpointError> {
        if !self.cursor.is_empty() {
            return Err(CheckpointError::TrailingBytes);
        }
        let expected = u32::from_le_bytes(self.trailer.try_into().expect("4 bytes"));
        let actual = crc32(self.body);
        if expected != actual {
            return Err(CheckpointError::BadChecksum { expected, actual });
        }
        Ok(())
    }
}

/// Writes checkpoint `bytes` (an image from [`params_to_bytes`]) to `path`
/// crash-safely: the bytes go to a temporary file in the same directory,
/// are flushed to stable storage, and are renamed over `path` in one step,
/// and the directory is flushed after the rename. A crash (or full disk)
/// at any point leaves `path` either absent or holding its previous
/// complete contents — never a half-written checkpoint.
///
/// # Errors
///
/// Returns the error of the first filesystem step that fails; the
/// temporary file is cleaned up on a best-effort basis.
pub fn write_checkpoint(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut bytes = bytes.to_vec();
    // Chaos site `checkpoint.save`: a firing `corrupt` rule flips one bit
    // after the CRC trailer was computed (rot between serialization and
    // stable storage — the next load must detect it); a firing `error`
    // rule becomes a torn temp file below.
    let injected = nptsn_chaos::point_bytes("checkpoint.save", &mut bytes);
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("checkpoint path {} has no file name", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    // Same directory as the destination so the rename cannot cross a
    // filesystem boundary (which would make it non-atomic).
    let tmp = dir.join(format!(".{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
    let write = (|| -> std::io::Result<()> {
        let mut f = File::create(&tmp)?;
        if let Err(fault) = injected {
            // Injected write failure: half the payload reaches the temp
            // file before the "crash", exercising cleanup and destination
            // atomicity.
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
            return Err(fault.into());
        }
        f.write_all(&bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        // The rename itself is durable once the directory entry is.
        File::open(dir)?.sync_all()
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    write
}

/// Reads the checkpoint bytes at `path`, for [`params_from_bytes`] or
/// [`checkpoint_shapes`] to validate.
///
/// # Errors
///
/// Returns the error of the read, or the injected one.
pub fn read_checkpoint(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut bytes = fs::read(path)?;
    // Chaos site `checkpoint.load`: `corrupt` models bit rot between write
    // and read (the CRC trailer must catch it); `error` models a failing
    // read.
    nptsn_chaos::point_bytes("checkpoint.load", &mut bytes)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Mlp, Module};
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;

    /// A unique temp-dir path per test (no wall clock available: process id
    /// + test name keep parallel test runs apart).
    fn temp_path(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nptsn-ck-{}-{test}.bin", std::process::id()))
    }

    #[test]
    fn roundtrip_restores_network_behavior() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Mlp::new(&mut rng, &[3, 8, 2], Activation::Tanh, Activation::Identity);
        let b = Mlp::new(&mut rng, &[3, 8, 2], Activation::Tanh, Activation::Identity);
        let x = nptsn_tensor::Tensor::from_vec(1, 3, vec![0.3, -0.1, 0.7]);
        assert_ne!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
        let ck = params_to_bytes(&a.parameters());
        params_from_bytes(&b.parameters(), &ck).unwrap();
        assert_eq!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
    }

    #[test]
    fn bad_magic_rejected() {
        let p = nptsn_tensor::Tensor::param(1, 1, vec![1.0]);
        let err = params_from_bytes(&[p], b"NOTACKPT........").unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
    }

    #[test]
    fn stale_version_rejected() {
        // A v1 checkpoint: same layout minus the trailer, magic NPTSNCK1.
        let p = nptsn_tensor::Tensor::param(1, 1, vec![1.0]);
        let mut bytes = params_to_bytes(std::slice::from_ref(&p));
        bytes[7] = b'1';
        bytes.truncate(bytes.len() - 4); // v1 had no CRC trailer
        assert_eq!(
            params_from_bytes(std::slice::from_ref(&p), &bytes),
            Err(CheckpointError::UnsupportedVersion { found: b'1' })
        );
        // A future version is refused the same way, even when intact.
        let mut future = params_to_bytes(std::slice::from_ref(&p));
        future[7] = b'3';
        assert_eq!(
            params_from_bytes(std::slice::from_ref(&p), &future),
            Err(CheckpointError::UnsupportedVersion { found: b'3' })
        );
    }

    #[test]
    fn truncation_rejected_without_mutation() {
        let p = nptsn_tensor::Tensor::param(1, 2, vec![5.0, 6.0]);
        let full = params_to_bytes(std::slice::from_ref(&p));
        // Every proper prefix must fail cleanly — never panic, never
        // mutate. Short prefixes of valid magic read as truncation, not as
        // a foreign format.
        for cut in 0..full.len() {
            let err = params_from_bytes(std::slice::from_ref(&p), &full[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::TrailingBytes
                ),
                "prefix of {cut} bytes: unexpected {err:?}"
            );
            assert_eq!(p.to_vec(), vec![5.0, 6.0], "target untouched on error");
        }
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let p = nptsn_tensor::Tensor::param(1, 2, vec![5.0, 6.0]);
        let full = params_to_bytes(std::slice::from_ref(&p));
        for byte in 0..full.len() {
            let mut corrupt = full.clone();
            corrupt[byte] ^= 0x10;
            let err = params_from_bytes(std::slice::from_ref(&p), &corrupt).unwrap_err();
            assert_eq!(p.to_vec(), vec![5.0, 6.0], "byte {byte}: target mutated");
            // Flips in the data or trailer surface as checksum failures;
            // flips in magic/header fields fail structurally first.
            match byte {
                0..=6 => assert_eq!(err, CheckpointError::BadMagic, "byte {byte}"),
                7 => assert!(
                    matches!(err, CheckpointError::UnsupportedVersion { .. }),
                    "byte {byte}: {err:?}"
                ),
                _ => assert!(
                    matches!(
                        err,
                        CheckpointError::BadChecksum { .. }
                            | CheckpointError::ShapeMismatch { .. }
                            | CheckpointError::Truncated
                            | CheckpointError::TrailingBytes
                    ),
                    "byte {byte}: {err:?}"
                ),
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = nptsn_tensor::Tensor::param(1, 2, vec![1.0, 2.0]);
        let b = nptsn_tensor::Tensor::param(2, 1, vec![0.0, 0.0]);
        let bytes = params_to_bytes(&[a]);
        assert_eq!(
            params_from_bytes(&[b], &bytes),
            Err(CheckpointError::ShapeMismatch { index: 0 })
        );
        let c = nptsn_tensor::Tensor::param(1, 1, vec![0.0]);
        let d = nptsn_tensor::Tensor::param(1, 1, vec![0.0]);
        let bytes2 = params_to_bytes(std::slice::from_ref(&c));
        assert!(matches!(
            params_from_bytes(&[c, d], &bytes2),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let p = nptsn_tensor::Tensor::param(1, 1, vec![1.0]);
        let mut bytes = params_to_bytes(std::slice::from_ref(&p));
        bytes.push(0);
        assert_eq!(params_from_bytes(&[p], &bytes), Err(CheckpointError::TrailingBytes));
    }

    #[test]
    fn errors_display() {
        for e in [
            CheckpointError::BadMagic,
            CheckpointError::UnsupportedVersion { found: b'1' },
            CheckpointError::Truncated,
            CheckpointError::ShapeMismatch { index: 3 },
            CheckpointError::TrailingBytes,
            CheckpointError::BadChecksum { expected: 1, actual: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn shapes_probe_matches_layout() {
        let a = nptsn_tensor::Tensor::param(2, 3, vec![0.0; 6]);
        let b = nptsn_tensor::Tensor::param(1, 4, vec![0.0; 4]);
        let bytes = params_to_bytes(&[a, b]);
        assert_eq!(checkpoint_shapes(&bytes).unwrap(), vec![(2, 3), (1, 4)]);
        assert_eq!(checkpoint_shapes(&params_to_bytes(&[])).unwrap(), vec![]);
    }

    #[test]
    fn shapes_probe_rejects_every_fault() {
        let p = nptsn_tensor::Tensor::param(1, 2, vec![5.0, 6.0]);
        let full = params_to_bytes(std::slice::from_ref(&p));
        // Truncation at every cut point.
        for cut in 0..full.len() {
            assert!(
                matches!(
                    checkpoint_shapes(&full[..cut]),
                    Err(CheckpointError::Truncated | CheckpointError::TrailingBytes)
                ),
                "prefix of {cut} bytes"
            );
        }
        // A flipped payload bit is a checksum failure.
        let mut rotted = full.clone();
        rotted[20] ^= 0x40;
        assert!(matches!(
            checkpoint_shapes(&rotted),
            Err(CheckpointError::BadChecksum { .. } | CheckpointError::Truncated)
        ));
        // Foreign bytes and stale versions are refused up front.
        assert_eq!(checkpoint_shapes(b"GETxHTTP/1.1"), Err(CheckpointError::BadMagic));
        let mut v1 = full.clone();
        v1[7] = b'1';
        assert_eq!(
            checkpoint_shapes(&v1),
            Err(CheckpointError::UnsupportedVersion { found: b'1' })
        );
        // A hostile count/shape header cannot force an allocation or an
        // overflow: it reads as truncation.
        let mut hostile = full.clone();
        hostile[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(checkpoint_shapes(&hostile), Err(CheckpointError::Truncated));
        let mut wide = full.clone();
        wide[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        wide[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(checkpoint_shapes(&wide), Err(CheckpointError::Truncated));
    }

    #[test]
    fn atomic_file_roundtrip() {
        let path = temp_path("roundtrip");
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mlp::new(&mut rng, &[2, 4, 1], Activation::Tanh, Activation::Identity);
        let b = Mlp::new(&mut rng, &[2, 4, 1], Activation::Tanh, Activation::Identity);
        write_checkpoint(&path, &params_to_bytes(&a.parameters())).unwrap();
        params_from_bytes(&b.parameters(), &read_checkpoint(&path).unwrap()).unwrap();
        let x = nptsn_tensor::Tensor::from_vec(1, 2, vec![0.5, -0.25]);
        assert_eq!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
        // Overwriting an existing checkpoint also goes through the rename.
        write_checkpoint(&path, &params_to_bytes(&b.parameters())).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_fault_injection() {
        let path = temp_path("faults");
        let p = nptsn_tensor::Tensor::param(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        write_checkpoint(&path, &params_to_bytes(std::slice::from_ref(&p))).unwrap();
        let good = std::fs::read(&path).unwrap();
        let load = |p: &Tensor| {
            params_from_bytes(std::slice::from_ref(p), &read_checkpoint(&path).unwrap())
        };

        // Simulated torn write: the file holds only a prefix.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(load(&p), Err(CheckpointError::Truncated));

        // Bit rot: one flipped bit in the tensor payload.
        let mut rotted = good.clone();
        let mid = 8 + 8 + 16 + 2; // inside the first tensor's f32 data
        rotted[mid] ^= 0x01;
        std::fs::write(&path, &rotted).unwrap();
        assert!(matches!(load(&p), Err(CheckpointError::BadChecksum { .. })));

        // Missing file: an I/O error, not a panic.
        let _ = std::fs::remove_file(&path);
        assert!(read_checkpoint(&path).is_err());
        assert_eq!(p.to_vec(), vec![1.0, 2.0, 3.0, 4.0], "target never mutated");
    }

    #[test]
    fn save_rejects_directoryless_path() {
        let p = nptsn_tensor::Tensor::param(1, 1, vec![1.0]);
        let bytes = params_to_bytes(std::slice::from_ref(&p));
        assert!(write_checkpoint(Path::new("/"), &bytes).is_err());
    }
}
