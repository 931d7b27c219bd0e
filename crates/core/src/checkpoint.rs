//! Model checkpointing: save/restore parameter tensors by name.
//!
//! The format is a small self-describing binary layout (magic, version,
//! little-endian lengths and `f32` payloads) written with std I/O only, so
//! no serialization-format dependency is needed. Two robustness properties
//! hold:
//!
//! * **Crash-safe saves**: [`Checkpoint::save`] writes to `<path>.tmp`,
//!   fsyncs, and atomically renames over the destination, so a crash mid-
//!   save never leaves a torn file at `path` — the previous checkpoint (if
//!   any) survives intact.
//! * **Integrity-checked loads**: the stream ends with an FNV-1a checksum
//!   of everything before it; [`Checkpoint::load`] verifies it and returns
//!   a typed [`CheckpointError`] on truncation or corruption instead of
//!   silently restoring garbage weights.

use salient_fault as fault;
use salient_nn::GnnModel;
use salient_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SALIENT\x02";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a hash `hash` (start from the 64-bit offset
/// basis, `0xcbf2_9ce4_8422_2325`).
pub fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Why a checkpoint could not be loaded (or saved).
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying read/write failed.
    Io(io::Error),
    /// The stream is structurally malformed (bad magic, implausible
    /// lengths, non-UTF-8 names, …).
    Corrupt(String),
    /// The trailing checksum did not match the stream contents — the file
    /// was truncated or bit-flipped after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the file's trailer.
        expected: u64,
        /// Checksum recomputed over the bytes actually read.
        actual: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint is corrupt: {msg}"),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: trailer {expected:#018x}, computed {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Hashes every byte that passes through on the way to `inner`.
struct HashingWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a_update(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Hashes every byte read from `inner`.
struct HashingReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash = fnv1a_update(self.hash, &buf[..n]);
        Ok(n)
    }
}

/// A named set of tensors (model parameters, optimizer state, …).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    entries: Vec<(String, Tensor)>,
}

impl Checkpoint {
    /// Creates an empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures every parameter of a model.
    pub fn from_model(model: &dyn GnnModel) -> Self {
        Checkpoint {
            entries: model
                .params()
                .iter()
                .map(|p| (p.name().to_string(), p.value().clone()))
                .collect(),
        }
    }

    /// Adds or replaces a tensor.
    pub fn insert(&mut self, name: impl Into<String>, tensor: Tensor) {
        let name = name.into();
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            e.1 = tensor;
        } else {
            self.entries.push((name, tensor));
        }
    }

    /// Restores parameters into a model by name. Every model parameter must
    /// be present with a matching shape.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error if a parameter is missing or its shape
    /// differs.
    pub fn apply_to_model(&self, model: &mut dyn GnnModel) -> Result<(), String> {
        let by_name: HashMap<&str, &Tensor> = self
            .entries
            .iter()
            .map(|(n, t)| (n.as_str(), t))
            .collect();
        for p in model.params_mut() {
            let t = by_name
                .get(p.name())
                .ok_or_else(|| format!("checkpoint is missing parameter '{}'", p.name()))?;
            if t.shape() != p.value().shape() {
                return Err(format!(
                    "parameter '{}' shape mismatch: checkpoint {} vs model {}",
                    p.name(),
                    t.shape(),
                    p.value().shape()
                ));
            }
            p.set_value((*t).clone());
        }
        Ok(())
    }

    /// Serializes to a writer, ending the stream with an FNV-1a checksum of
    /// everything before it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut hw = HashingWriter { inner: w, hash: FNV_OFFSET };
        hw.write_all(MAGIC)?;
        hw.write_all(&(self.entries.len() as u64).to_le_bytes())?;
        for (i, (name, t)) in self.entries.iter().enumerate() {
            // Injectable mid-save crash: a Panic here models the process
            // dying with the file half-written.
            fault::fire(fault::sites::CKPT_WRITE, i as u64);
            let nb = name.as_bytes();
            hw.write_all(&(nb.len() as u32).to_le_bytes())?;
            hw.write_all(nb)?;
            let shape = t.shape();
            let dims = shape.dims();
            hw.write_all(&(dims.len() as u32).to_le_bytes())?;
            for &d in dims {
                hw.write_all(&(d as u64).to_le_bytes())?;
            }
            for &x in t.data() {
                hw.write_all(&x.to_le_bytes())?;
            }
        }
        let digest = hw.hash;
        hw.inner.write_all(&digest.to_le_bytes())
    }

    /// Deserializes from a reader, verifying the trailing checksum.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] on I/O failure, malformed input
    /// (a tensor of rank above 2 among it), or checksum mismatch.
    pub fn read_from(r: &mut impl Read) -> Result<Self, CheckpointError> {
        let bad = |msg: &str| CheckpointError::Corrupt(msg.to_string());
        let mut hr = HashingReader { inner: r, hash: FNV_OFFSET };
        let mut magic = [0u8; 8];
        hr.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a SALIENT checkpoint"));
        }
        let mut u64b = [0u8; 8];
        hr.read_exact(&mut u64b)?;
        let count = u64::from_le_bytes(u64b) as usize;
        if count > 1_000_000 {
            return Err(bad("implausible entry count"));
        }
        // Reservations below are capped and grow with what the stream really
        // holds: a corrupt length must not reserve gigabytes ahead of the
        // read that fails.
        let mut entries = Vec::with_capacity(count.min(1 << 10));
        for _ in 0..count {
            let mut u32b = [0u8; 4];
            hr.read_exact(&mut u32b)?;
            let name_len = u32::from_le_bytes(u32b) as usize;
            if name_len > 4096 {
                return Err(bad("implausible name length"));
            }
            let mut name = vec![0u8; name_len];
            hr.read_exact(&mut name)?;
            let name = String::from_utf8(name).map_err(|_| bad("name is not UTF-8"))?;
            hr.read_exact(&mut u32b)?;
            let rank = u32::from_le_bytes(u32b) as usize;
            let mut dims = [0usize; 2];
            let Some(dims) = dims.get_mut(..rank) else {
                return Err(bad("rank above 2"));
            };
            for d in dims.iter_mut() {
                hr.read_exact(&mut u64b)?;
                *d = u64::from_le_bytes(u64b) as usize;
            }
            // Checked, and with a zero dim counted as one, so that neither the
            // element count nor the row width can overflow on a crafted file.
            let bound = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d.max(1)));
            if bound.is_none_or(|n| n > 1 << 30) {
                return Err(bad("implausible tensor size"));
            }
            let shape = Shape::from_dims(dims).ok_or_else(|| bad("rank above 2"))?;
            let len = shape.len();
            let mut data = Vec::with_capacity(len.min(1 << 16));
            let mut f32b = [0u8; 4];
            for _ in 0..len {
                hr.read_exact(&mut f32b)?;
                data.push(f32::from_le_bytes(f32b));
            }
            entries.push((name, Tensor::from_vec(data, shape)));
        }
        // Everything parsed so far is covered by the trailer, which is read
        // from the raw stream (hashing it would change what it asserts).
        let actual = hr.hash;
        let mut trailer = [0u8; 8];
        hr.inner.read_exact(&mut trailer)?;
        let expected = u64::from_le_bytes(trailer);
        if expected != actual {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }
        Ok(Checkpoint { entries })
    }

    /// Saves to a file path crash-safely: the bytes land in `<path>.tmp`,
    /// are fsynced, and are renamed over `path` only once complete — a
    /// crash mid-save leaves any previous checkpoint at `path` untouched.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (the temporary file is cleaned up on failure).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = tmp_path(path);
        let result = (|| {
            let file = std::fs::File::create(&tmp)?;
            let mut w = io::BufWriter::new(file);
            self.write_to(&mut w)?;
            w.flush()?;
            // Durability before visibility: data reaches the disk before
            // the rename publishes it.
            w.get_ref().sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Loads from a file path, verifying structure and checksum.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] on I/O failure, malformed input
    /// (a tensor of rank above 2 among it), or checksum mismatch.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let mut f = io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(&mut f)
    }
}

/// Sibling temporary path for crash-safe saves (`model.ckpt` →
/// `model.ckpt.tmp`), kept on the same filesystem so the rename is atomic.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_nn::{build_model, ModelKind};

    #[test]
    fn byte_round_trip() {
        let mut ckpt = Checkpoint::new();
        ckpt.insert("a", Tensor::from_vec(vec![1.0, -2.5, 3.25], [3]));
        ckpt.insert("b.weight", Tensor::zeros([2, 4]));
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(ckpt, back);
        assert_eq!(back.entries[0].1.data(), &[1.0, -2.5, 3.25]);
    }

    #[test]
    fn model_round_trip_restores_exact_weights() {
        let model = build_model(ModelKind::Sage, 8, 16, 4, 2, 7);
        let ckpt = Checkpoint::from_model(model.as_ref());
        // Fresh model with different seed, then restore.
        let mut other = build_model(ModelKind::Sage, 8, 16, 4, 2, 99);
        let before: Vec<f32> = other.params()[0].value().data().to_vec();
        ckpt.apply_to_model(other.as_mut()).unwrap();
        let after: Vec<f32> = other.params()[0].value().data().to_vec();
        assert_ne!(before, after);
        assert_eq!(after, model.params()[0].value().data());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let model = build_model(ModelKind::Sage, 8, 16, 4, 2, 7);
        let ckpt = Checkpoint::from_model(model.as_ref());
        let mut wrong = build_model(ModelKind::Sage, 8, 32, 4, 2, 7);
        let err = ckpt.apply_to_model(wrong.as_mut()).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");
    }

    #[test]
    fn missing_parameter_is_rejected() {
        let ckpt = Checkpoint::new();
        let mut model = build_model(ModelKind::Sage, 8, 16, 4, 2, 7);
        let err = ckpt.apply_to_model(model.as_mut()).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let err = Checkpoint::read_from(&mut &b"NOTSALIE000"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn file_round_trip() {
        // The workspace's target/tmp: private to this checkout, so two test
        // runs on one host never share the file.
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR")
                .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").into()),
        )
        .join("tmp/checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let model = build_model(ModelKind::Gin, 8, 16, 4, 2, 3);
        let ckpt = Checkpoint::from_model(model.as_ref());
        ckpt.save(&path).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp file must not survive a clean save");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt, back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut ckpt = Checkpoint::new();
        ckpt.insert("w", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]));
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        // Cut the file anywhere — the trailer (or the data feeding it) is
        // gone, so every truncation point must be detected.
        for cut in [buf.len() - 1, buf.len() - 8, buf.len() - 12, 10] {
            let err = Checkpoint::read_from(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Io(_) | CheckpointError::Corrupt(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn overflowing_or_oversized_shapes_are_rejected() {
        // One entry with the given dims, no payload, and a correct trailer:
        // only the size check stands between the loader and the dims.
        let crafted = |dims: &[u64]| {
            let rank = (dims.len() as u32).to_le_bytes();
            let mut buf = [&MAGIC[..], &1u64.to_le_bytes(), &1u32.to_le_bytes(), b"w", &rank].concat();
            buf.extend(dims.iter().flat_map(|d| d.to_le_bytes()));
            let digest = fnv1a_update(FNV_OFFSET, &buf);
            buf.extend(digest.to_le_bytes());
            buf
        };
        // 2^33 * 2^31 wraps to 0 elements in an unchecked product.
        for dims in [&[1 << 33, 1 << 31][..], &[1 << 16, (1 << 14) + 1]] {
            let err = Checkpoint::read_from(&mut crafted(dims).as_slice()).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Corrupt(m) if m == "implausible tensor size"),
                "{dims:?}: {err}"
            );
        }
        // A rank-3 header is refused before its dims are read.
        let err = Checkpoint::read_from(&mut crafted(&[0, 1 << 40, 1 << 40]).as_slice()).unwrap_err();
        assert!(matches!(&err, CheckpointError::Corrupt(m) if m == "rank above 2"), "{err}");
        // A zero-element tensor of plausible dims still loads.
        let back = Checkpoint::read_from(&mut crafted(&[0, 3]).as_slice()).unwrap();
        assert_eq!(back.entries[0].1.shape().dims(), &[0, 3]);
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let mut ckpt = Checkpoint::new();
        ckpt.insert("w", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]));
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        // Flip one payload bit (past magic/count, before the trailer).
        let victim = buf.len() - 12;
        buf[victim] ^= 0x01;
        let err = Checkpoint::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::ChecksumMismatch { .. } | CheckpointError::Corrupt(_)
            ),
            "{err}"
        );
    }

    // Crash-during-save recovery (via injected faults) is exercised in the
    // serialized fault-matrix integration tests, where installing a global
    // fault plan cannot race with unrelated parallel tests.
}
