//! The in-enclave libc shim and its untrusted helper (§5.4).
//!
//! Enclaves run in user mode and cannot issue system calls. Rather than
//! embedding a library OS, Montsalvat redefines unsupported libc routines
//! inside the enclave as thin wrappers that relay the call to an
//! untrusted *shim helper* via ocalls. This module reproduces that
//! design: [`ShimFile`] and [`shim_clock_ns`] are the enclave-side
//! wrappers; every operation crosses the boundary (counted and charged by
//! the [`Enclave`]) and is served by the host OS outside.
//!
//! Untrusted code uses [`HostFile`], which calls the host OS directly and
//! pays nothing — the asymmetry the partitioning experiments exploit.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::enclave::Enclave;
use crate::error::SgxError;

/// A file handle held by trusted code; every operation is relayed to the
/// untrusted runtime with an ocall.
///
/// # Examples
///
/// ```no_run
/// # use std::sync::Arc;
/// # use sgx_sim::cost::{ClockMode, CostModel, CostParams};
/// # use sgx_sim::enclave::{Enclave, EnclaveConfig};
/// # use sgx_sim::shim::ShimFile;
/// # fn main() -> Result<(), sgx_sim::SgxError> {
/// # let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
/// # let enclave = Enclave::create(&EnclaveConfig::default(), b"img", cost)?;
/// let mut f = ShimFile::create(Arc::clone(&enclave), "/tmp", "secret.bin")?;
/// f.write_all(b"sealed data")?; // one ocall
/// assert!(enclave.stats().ocalls >= 2); // create + write
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShimFile {
    enclave: Arc<Enclave>,
    inner: File,
    path: PathBuf,
}

/// `path` resolved under `root` (an absolute `path` stays as it is),
/// and the bytes a relay of it carries out: its length relative to
/// `root`. The untrusted shim helper runs in `root`, so a relative name
/// is all that crosses, and no charge depends on where `root` lies.
fn rooted(root: &Path, path: &Path) -> (PathBuf, usize) {
    let full = root.join(path);
    let bytes = full.strip_prefix(root).unwrap_or(&full).as_os_str().len();
    (full, bytes)
}

impl ShimFile {
    /// Creates (truncating) `path` under `root` through the shim. Costs
    /// one ocall carrying the path relative to `root`.
    ///
    /// # Errors
    ///
    /// Relays of host I/O failures surface as [`SgxError::HostIo`];
    /// a lost enclave surfaces as [`SgxError::EnclaveLost`].
    pub fn create(
        enclave: Arc<Enclave>,
        root: impl AsRef<Path>,
        path: impl AsRef<Path>,
    ) -> Result<Self, SgxError> {
        let (path, path_bytes) = rooted(root.as_ref(), path.as_ref());
        let inner = enclave.ocall("shim_open", path_bytes, || {
            OpenOptions::new().create(true).write(true).truncate(true).read(true).open(&path)
        })??;
        Ok(ShimFile { enclave, inner, path })
    }

    /// Opens an existing `path` under `root` read-only through the shim.
    /// Costs one ocall carrying the path relative to `root`.
    ///
    /// # Errors
    ///
    /// See [`ShimFile::create`].
    pub fn open(
        enclave: Arc<Enclave>,
        root: impl AsRef<Path>,
        path: impl AsRef<Path>,
    ) -> Result<Self, SgxError> {
        let (path, path_bytes) = rooted(root.as_ref(), path.as_ref());
        let inner = enclave.ocall("shim_open", path_bytes, || File::open(&path))??;
        Ok(ShimFile { enclave, inner, path })
    }

    /// The path this handle was opened with.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the whole buffer; one ocall carrying `buf.len()` bytes out.
    ///
    /// # Errors
    ///
    /// See [`ShimFile::create`].
    pub fn write_all(&mut self, buf: &[u8]) -> Result<(), SgxError> {
        let inner = &mut self.inner;
        self.enclave.ocall("shim_write", buf.len(), || inner.write_all(buf))??;
        Ok(())
    }

    /// Reads exactly `buf.len()` bytes; one ocall carrying them back in.
    ///
    /// Data returned by an ocall still crosses the boundary inward, so
    /// the byte count is charged as an additional inward copy.
    ///
    /// # Errors
    ///
    /// See [`ShimFile::create`].
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), SgxError> {
        let inner = &mut self.inner;
        self.enclave.ocall("shim_read", buf.len(), || inner.read_exact(buf))??;
        Ok(())
    }

    /// Seeks; one ocall.
    ///
    /// # Errors
    ///
    /// See [`ShimFile::create`].
    pub fn seek(&mut self, pos: SeekFrom) -> Result<u64, SgxError> {
        let inner = &mut self.inner;
        let off = self.enclave.ocall("shim_lseek", 8, || inner.seek(pos))??;
        Ok(off)
    }

    /// Flushes and syncs to stable storage; one ocall.
    ///
    /// # Errors
    ///
    /// See [`ShimFile::create`].
    pub fn sync_all(&mut self) -> Result<(), SgxError> {
        let inner = &mut self.inner;
        self.enclave.ocall("shim_fsync", 0, || inner.sync_all())??;
        Ok(())
    }
}

/// Deletes `path` under `root` through the shim. Costs one ocall
/// carrying the path relative to `root`.
///
/// # Errors
///
/// See [`ShimFile::create`].
pub fn shim_remove_file(
    enclave: &Enclave,
    root: impl AsRef<Path>,
    path: impl AsRef<Path>,
) -> Result<(), SgxError> {
    let (path, path_bytes) = rooted(root.as_ref(), path.as_ref());
    enclave.ocall("shim_unlink", path_bytes, || std::fs::remove_file(&path))??;
    Ok(())
}

/// Reads the host wall clock through the shim (`clock_gettime` relay).
/// Costs one ocall.
///
/// # Errors
///
/// Returns [`SgxError::EnclaveLost`] if the enclave is gone.
pub fn shim_clock_ns(enclave: &Enclave) -> Result<u128, SgxError> {
    enclave.ocall("shim_clock_gettime", 16, || {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    })
}

/// A file handle held by untrusted code: direct host I/O, no crossings.
///
/// Exists so application code can be written once against a common shape
/// and handed either a [`ShimFile`] (trusted placement) or a
/// [`HostFile`] (untrusted placement).
#[derive(Debug)]
pub struct HostFile {
    inner: File,
    path: PathBuf,
}

impl HostFile {
    /// Creates (truncating) a file directly on the host.
    ///
    /// # Errors
    ///
    /// Propagates host I/O failure as [`SgxError::HostIo`].
    pub fn create(path: impl AsRef<Path>) -> Result<Self, SgxError> {
        let path = path.as_ref().to_path_buf();
        let inner =
            OpenOptions::new().create(true).write(true).truncate(true).read(true).open(&path)?;
        Ok(HostFile { inner, path })
    }

    /// Opens an existing file read-only directly on the host.
    ///
    /// # Errors
    ///
    /// Propagates host I/O failure as [`SgxError::HostIo`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SgxError> {
        let path = path.as_ref().to_path_buf();
        Ok(HostFile { inner: File::open(&path)?, path })
    }

    /// The path this handle was opened with.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes the whole buffer.
    ///
    /// # Errors
    ///
    /// Propagates host I/O failure as [`SgxError::HostIo`].
    pub fn write_all(&mut self, buf: &[u8]) -> Result<(), SgxError> {
        self.inner.write_all(buf)?;
        Ok(())
    }

    /// Reads exactly `buf.len()` bytes.
    ///
    /// # Errors
    ///
    /// Propagates host I/O failure as [`SgxError::HostIo`].
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), SgxError> {
        self.inner.read_exact(buf)?;
        Ok(())
    }

    /// Seeks.
    ///
    /// # Errors
    ///
    /// Propagates host I/O failure as [`SgxError::HostIo`].
    pub fn seek(&mut self, pos: SeekFrom) -> Result<u64, SgxError> {
        Ok(self.inner.seek(pos)?)
    }

    /// Flushes and syncs to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates host I/O failure as [`SgxError::HostIo`].
    pub fn sync_all(&mut self) -> Result<(), SgxError> {
        self.inner.sync_all()?;
        Ok(())
    }
}

/// Selects where a component's file I/O executes: directly on the host
/// (untrusted placement) or relayed through the enclave shim (trusted
/// placement).
///
/// Components written against this type (the KV store, the graph
/// sharder/engine) can be placed on either side of the boundary without
/// code changes — the essence of what class-level partitioning moves
/// around.
///
/// The rooted variants resolve relative paths under a root directory
/// (an application's working directory), so components can name their
/// files relative to it.
#[derive(Debug, Clone)]
pub enum IoBackend {
    /// Direct host I/O; paths are used as given.
    Host,
    /// Direct host I/O under a root directory.
    HostAt(PathBuf),
    /// Relayed I/O through the enclave shim (each operation an ocall)
    /// under a root directory; a relayed path is charged by its bytes
    /// relative to the root.
    Enclave(Arc<Enclave>, PathBuf),
}

impl IoBackend {
    /// `path` as this backend opens it: joined under the backend's root,
    /// if any (an absolute `path` stays as it is).
    pub fn resolve(&self, path: impl AsRef<Path>) -> PathBuf {
        match self {
            IoBackend::Host => path.as_ref().to_path_buf(),
            IoBackend::HostAt(root) | IoBackend::Enclave(_, root) => root.join(path),
        }
    }

    /// Creates (truncating) a file on this backend.
    ///
    /// # Errors
    ///
    /// Propagates host/relay I/O failure.
    pub fn create(&self, path: impl AsRef<Path>) -> Result<BackendFile, SgxError> {
        match self {
            IoBackend::Enclave(e, root) => {
                Ok(BackendFile::Shim(ShimFile::create(Arc::clone(e), root, path)?))
            }
            _ => Ok(BackendFile::Host(HostFile::create(self.resolve(path))?)),
        }
    }

    /// Opens an existing file on this backend.
    ///
    /// # Errors
    ///
    /// Propagates host/relay I/O failure.
    pub fn open(&self, path: impl AsRef<Path>) -> Result<BackendFile, SgxError> {
        match self {
            IoBackend::Enclave(e, root) => {
                Ok(BackendFile::Shim(ShimFile::open(Arc::clone(e), root, path)?))
            }
            _ => Ok(BackendFile::Host(HostFile::open(self.resolve(path))?)),
        }
    }
}

/// A file handle on either side of the enclave boundary.
#[derive(Debug)]
pub enum BackendFile {
    /// Direct host handle.
    Host(HostFile),
    /// Enclave-shim handle (each operation is an ocall).
    Shim(ShimFile),
}

impl BackendFile {
    /// Writes the whole buffer.
    ///
    /// # Errors
    ///
    /// Propagates host/relay I/O failure.
    pub fn write_all(&mut self, buf: &[u8]) -> Result<(), SgxError> {
        match self {
            BackendFile::Host(f) => f.write_all(buf),
            BackendFile::Shim(f) => f.write_all(buf),
        }
    }

    /// Reads exactly `buf.len()` bytes.
    ///
    /// # Errors
    ///
    /// Propagates host/relay I/O failure.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), SgxError> {
        match self {
            BackendFile::Host(f) => f.read_exact(buf),
            BackendFile::Shim(f) => f.read_exact(buf),
        }
    }

    /// Seeks.
    ///
    /// # Errors
    ///
    /// Propagates host/relay I/O failure.
    pub fn seek(&mut self, pos: SeekFrom) -> Result<u64, SgxError> {
        match self {
            BackendFile::Host(f) => f.seek(pos),
            BackendFile::Shim(f) => f.seek(pos),
        }
    }

    /// Syncs to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates host/relay I/O failure.
    pub fn sync_all(&mut self) -> Result<(), SgxError> {
        match self {
            BackendFile::Host(f) => f.sync_all(),
            BackendFile::Shim(f) => f.sync_all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{ClockMode, CostModel, CostParams};
    use crate::enclave::EnclaveConfig;

    fn enclave() -> Arc<Enclave> {
        let cost = Arc::new(CostModel::new(CostParams::default(), ClockMode::Virtual));
        Enclave::create(&EnclaveConfig::default(), b"shim test", cost).unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sgx_sim_shim_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn shim_roundtrip_counts_ocalls() {
        let e = enclave();
        let path = temp_path("roundtrip");
        let mut f = ShimFile::create(Arc::clone(&e), "/", &path).unwrap();
        f.write_all(b"hello enclave").unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        let mut buf = [0u8; 13];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello enclave");
        let s = e.stats();
        // create + write + seek + read = 4 ocalls
        assert_eq!(s.ocalls, 4);
        assert!(s.bytes_out >= 13);
        shim_remove_file(&e, "/", &path).unwrap();
    }

    #[test]
    fn relayed_paths_are_charged_relative_to_the_root() {
        // The same relative name under a short and a long root moves the
        // same bytes out, whether it is passed relative or absolute.
        let short = temp_path("r");
        let long = temp_path("a_much_longer_root_directory").join("nested");
        let mut bytes_out = Vec::new();
        for (root, name) in [(&short, PathBuf::from("f.bin")), (&long, long.join("f.bin"))] {
            std::fs::create_dir_all(root).unwrap();
            let e = enclave();
            let backend = IoBackend::Enclave(Arc::clone(&e), root.clone());
            backend.create(&name).unwrap();
            backend.open(&name).unwrap();
            shim_remove_file(&e, root, &name).unwrap();
            bytes_out.push((e.stats().bytes_out, e.cost().charged()));
            std::fs::remove_dir_all(root).unwrap();
        }
        assert_eq!(bytes_out[0], bytes_out[1]);
        assert_eq!(bytes_out[0].0, 3 * "f.bin".len() as u64);
    }

    #[test]
    fn host_file_costs_nothing() {
        let e = enclave();
        let path = temp_path("host");
        let mut f = HostFile::create(&path).unwrap();
        f.write_all(b"plain").unwrap();
        assert_eq!(e.stats().ocalls, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shim_open_missing_file_is_host_io_error() {
        let e = enclave();
        let err = ShimFile::open(e, "/nonexistent", "definitely/missing").unwrap_err();
        assert!(matches!(err, SgxError::HostIo { .. }));
    }

    #[test]
    fn shim_clock_advances() {
        let e = enclave();
        let a = shim_clock_ns(&e).unwrap();
        let b = shim_clock_ns(&e).unwrap();
        assert!(b >= a);
        assert_eq!(e.stats().ocalls, 2);
    }

    #[test]
    fn lost_enclave_fails_shim_ops() {
        let e = enclave();
        let path = temp_path("lost");
        let mut f = ShimFile::create(Arc::clone(&e), "/", &path).unwrap();
        e.destroy();
        assert_eq!(f.write_all(b"x").unwrap_err(), SgxError::EnclaveLost);
        std::fs::remove_file(&path).unwrap();
    }
}
