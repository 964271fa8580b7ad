//! Read-only memory-mapped files for the zero-copy index path.
//!
//! [`MappedFile::open`] maps a file `PROT_READ`/`MAP_PRIVATE` and exposes it
//! as a `&[u8]`. The mapping is immutable and private, so sharing it across
//! threads is sound (`Send + Sync`); the pages are faulted in lazily by the
//! kernel, which is what makes opening a multi-gigabyte segment cheap.
//!
//! No `libc` crate is available in this workspace, so on Unix the `mmap` /
//! `munmap` symbols are declared directly (std already links the platform
//! libc). Anywhere the syscall is unavailable — other platforms, exotic
//! filesystems where `mmap` fails — [`MappedFile::open`] falls back to a
//! plain heap read, preserving behaviour at the cost of residency.

use std::fs;
use std::io;
use std::ops::Deref;
use std::path::Path;

/// A read-only view of a file: memory-mapped when possible, heap-backed
/// otherwise. Dereferences to `&[u8]`.
#[derive(Debug)]
pub(crate) struct MappedFile {
    data: Backing,
}

#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Mmap {
        ptr: *const u8,
        len: usize,
    },
    Heap(Vec<u8>),
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE and never mutated or
// remapped after construction; concurrent readers see a stable byte slice.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub(crate) const PROT_READ: i32 = 1;
    pub(crate) const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub(crate) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl MappedFile {
    /// Opens `path` read-only. Empty files and mapping failures degrade to
    /// the heap backing; I/O errors surface to the caller.
    pub(crate) fn open(path: impl AsRef<Path>) -> io::Result<MappedFile> {
        let path = path.as_ref();
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let file = fs::File::open(path)?;
            let len = file.metadata()?.len();
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "file too large to map"))?;
            if len > 0 {
                // SAFETY: fd is valid for the duration of the call; a
                // MAP_FAILED return is checked before the pointer is used.
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 && !ptr.is_null() {
                    return Ok(MappedFile {
                        data: Backing::Mmap {
                            ptr: ptr as *const u8,
                            len,
                        },
                    });
                }
            }
            // Zero-length or mmap refused: fall through to the heap read.
        }
        Ok(MappedFile {
            data: Backing::Heap(fs::read(path)?),
        })
    }

    /// True when the backing is an actual kernel mapping (pages are shared
    /// with the page cache rather than resident on the heap).
    #[cfg(test)]
    pub(crate) fn is_mapped(&self) -> bool {
        match &self.data {
            #[cfg(unix)]
            Backing::Mmap { .. } => true,
            Backing::Heap(_) => false,
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        match &self.data {
            #[cfg(unix)]
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // `self`; it is unmapped only in Drop.
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(v) => v.as_slice(),
        }
    }
}

impl Deref for MappedFile {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mmap { ptr, len } = self.data {
            // SAFETY: the pointer came from a successful mmap of `len` bytes
            // and is unmapped exactly once.
            unsafe {
                sys::munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ajax_mapfile_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents() {
        let path = temp("basic");
        fs::write(&path, b"hello mapped world").unwrap();
        let m = MappedFile::open(&path).unwrap();
        assert_eq!(&m[..], b"hello mapped world");
        assert_eq!(m.len(), 18);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_heap_backed() {
        let path = temp("empty");
        fs::write(&path, b"").unwrap();
        let m = MappedFile::open(&path).unwrap();
        assert!(m.is_empty());
        assert!(!m.is_mapped());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(MappedFile::open("/nonexistent/definitely/missing.bin").is_err());
    }

    #[test]
    fn shared_across_threads() {
        let path = temp("threads");
        fs::write(&path, vec![7u8; 4096]).unwrap();
        let m = std::sync::Arc::new(MappedFile::open(&path).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || m.iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7 * 4096);
        }
        fs::remove_file(&path).ok();
    }
}
