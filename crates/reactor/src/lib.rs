//! # pm-reactor
//!
//! Readiness polling and the connection layer on top of it, behind a safe
//! API, with no dependencies beyond the libc every Rust std program
//! already links.
//!
//! The serving layer needs to drive 100k+ mostly-idle subscriber sockets
//! from one thread, which means readiness notification — but the build has
//! no crates.io access, so this crate binds the raw syscalls itself:
//! `epoll_create1`/`epoll_ctl`/`epoll_wait` on Linux, `poll(2)` elsewhere,
//! via small `extern "C"` declarations. All `unsafe` in the workspace lives
//! here (the engine crates stay `forbid(unsafe_code)`), wrapped by
//! [`Poller`], whose API cannot be misused into memory unsafety: file
//! descriptors are passed by value, event buffers are owned by the poller,
//! and the epoll fd is closed on drop.
//!
//! On top of it, [`conn`] is the safe connection layer both serving loops
//! (`pm-engine`'s reactor, `pm-coord`'s coordinator) drive.
//!
//! The crate also exposes the process' `RLIMIT_NOFILE` ([`nofile_limit`] /
//! [`raise_nofile_limit`]) so fd-hungry subscriber tests and benches can
//! ask for headroom and scale themselves to what they actually get.

#![warn(missing_docs)]

pub mod conn;

use std::io;
use std::os::raw::{c_int, c_uint};
use std::time::Duration;

/// Which readiness a registration waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only.
    Read,
    /// Writable only.
    Write,
    /// Readable or writable.
    ReadWrite,
}

impl Interest {
    fn readable(self) -> bool {
        matches!(self, Interest::Read | Interest::ReadWrite)
    }

    fn writable(self) -> bool {
        matches!(self, Interest::Write | Interest::ReadWrite)
    }
}

/// One readiness event: the registered token plus what the fd is ready for.
///
/// `hangup`/`error` can fire even when not asked for; the owner should
/// treat either as "try the I/O and observe the failure".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Ready for reading (or a peer half-close, which reads as EOF).
    pub readable: bool,
    /// Ready for writing.
    pub writable: bool,
    /// The peer hung up.
    pub hangup: bool,
    /// The fd is in an error state.
    pub error: bool,
}

/// A readiness poller: register fds with a token and an [`Interest`], then
/// [`Poller::wait`] for events. Level-triggered on every platform.
#[derive(Debug)]
pub struct Poller {
    sys: sys::Poller,
}

impl Poller {
    /// Creates a poller. The underlying fd is close-on-exec and closed on
    /// drop.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            sys: sys::Poller::new()?,
        })
    }

    /// Registers `fd` under `token`. The caller keeps ownership of the fd
    /// and must [`Poller::deregister`] it before closing it.
    pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.sys.register(fd, token, interest)
    }

    /// Changes the token or interest of a registered fd.
    pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.sys.modify(fd, token, interest)
    }

    /// Removes a registration. Must be called before the fd is closed.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.sys.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready (or the timeout
    /// elapses; `None` waits forever), appending events to `events` after
    /// clearing it. Returns the number of events. `EINTR` retries
    /// internally.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(t) => c_int::try_from(t.as_millis()).unwrap_or(c_int::MAX),
        };
        self.sys.wait(events, timeout_ms)?;
        Ok(events.len())
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::raw::c_int;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs
    /// it (no padding between the 32-bit mask and the 64-bit data word).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    #[derive(Debug)]
    pub(super) struct Poller {
        epfd: c_int,
    }

    fn mask_of(interest: Interest) -> u32 {
        let mut mask = EPOLLRDHUP;
        if interest.readable() {
            mask |= EPOLLIN;
        }
        if interest.writable() {
            mask |= EPOLLOUT;
        }
        mask
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes a flag word and returns an fd or
            // -1; no pointers are involved.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&mut self, op: c_int, fd: i32, event: Option<EpollEvent>) -> io::Result<()> {
            let mut event = event;
            let ptr = event
                .as_mut()
                .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is null (DEL) or points at a live stack value
            // that outlives the call; the kernel copies it synchronously.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd as c_int, ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(
            &mut self,
            fd: i32,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                Some(EpollEvent {
                    events: mask_of(interest),
                    data: token,
                }),
            )
        }

        pub(super) fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                Some(EpollEvent {
                    events: mask_of(interest),
                    data: token,
                }),
            )
        }

        pub(super) fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: c_int) -> io::Result<()> {
            let mut kernel: [EpollEvent; 1024] = [EpollEvent { events: 0, data: 0 }; 1024];
            let n = loop {
                // SAFETY: the buffer pointer and capacity describe a live
                // stack array; the kernel writes at most `maxevents`
                // entries before returning.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        kernel.as_mut_ptr(),
                        kernel.len() as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for entry in &kernel[..n] {
                // A packed struct field cannot be borrowed; copy it out.
                let events = { entry.events };
                let data = { entry.data };
                out.push(Event {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLHUP | EPOLLRDHUP) != 0,
                    error: events & EPOLLERR != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: the fd was returned by epoll_create1 and is closed
            // exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Portable fallback: a registration table replayed through `poll(2)`
    /// on every wait. O(n) per wake-up, fine for the modest fd counts
    /// non-Linux development machines see.
    #[derive(Debug)]
    pub(super) struct Poller {
        registered: Vec<(i32, u64, Interest)>,
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Self> {
            Ok(Self {
                registered: Vec::new(),
            })
        }

        pub(super) fn register(
            &mut self,
            fd: i32,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            if self.registered.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::from(io::ErrorKind::AlreadyExists));
            }
            self.registered.push((fd, token, interest));
            Ok(())
        }

        pub(super) fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            match self.registered.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(slot) => {
                    *slot = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::from(io::ErrorKind::NotFound)),
            }
        }

        pub(super) fn deregister(&mut self, fd: i32) -> io::Result<()> {
            match self.registered.iter().position(|(f, _, _)| *f == fd) {
                Some(at) => {
                    self.registered.swap_remove(at);
                    Ok(())
                }
                None => Err(io::Error::from(io::ErrorKind::NotFound)),
            }
        }

        pub(super) fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: c_int) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .registered
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: if interest.readable() { POLLIN } else { 0 }
                        | if interest.writable() { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            loop {
                // SAFETY: the pointer/length pair describes a live vector;
                // the kernel writes only the `revents` fields.
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
                if rc >= 0 {
                    break;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
            for (slot, (_, token, _)) in fds.iter().zip(&self.registered) {
                if slot.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token: *token,
                    readable: slot.revents & (POLLIN | POLLHUP) != 0,
                    writable: slot.revents & POLLOUT != 0,
                    hangup: slot.revents & POLLHUP != 0,
                    error: slot.revents & POLLERR != 0,
                });
            }
            Ok(())
        }
    }
}

#[repr(C)]
#[derive(Clone, Copy)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_uint = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_uint = 8;

extern "C" {
    fn getrlimit(resource: c_uint, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_uint, rlim: *const RLimit) -> c_int;
}

/// The process' `RLIMIT_NOFILE` as `(soft, hard)`.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut rlim = RLimit { cur: 0, max: 0 };
    // SAFETY: the pointer targets a live stack value the kernel fills.
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut rlim) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((rlim.cur, rlim.max))
}

/// Raises the soft `RLIMIT_NOFILE` towards `want`, lifting the hard limit
/// too when the process is privileged to. Returns the soft limit actually
/// in effect afterwards — callers holding many sockets should scale
/// themselves to the returned value rather than assume the ask succeeded.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let (soft, hard) = nofile_limit()?;
    if soft >= want {
        return Ok(soft);
    }
    // Privileged processes may lift the hard limit with the soft one.
    if want > hard {
        let rlim = RLimit {
            cur: want,
            max: want,
        };
        // SAFETY: plain by-value struct pointer, read synchronously.
        if unsafe { setrlimit(RLIMIT_NOFILE, &rlim) } == 0 {
            return Ok(want);
        }
    }
    let cur = want.min(hard);
    let rlim = RLimit { cur, max: hard };
    // SAFETY: as above.
    if unsafe { setrlimit(RLIMIT_NOFILE, &rlim) } == 0 {
        return Ok(cur);
    }
    Err(io::Error::last_os_error())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_sees_readable_and_writable_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();

        // A fresh socket with room in its send buffer is writable.
        poller
            .register(client.as_raw_fd(), 7, Interest::ReadWrite)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Nothing to read yet: read-only interest times out.
        poller
            .modify(client.as_raw_fd(), 7, Interest::Read)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "{events:?}");

        // Peer data makes it readable.
        (&server).write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);
        let mut buf = [0u8; 8];
        assert_eq!((&client).read(&mut buf).unwrap(), 1);

        // Peer close reports readable (EOF) and usually hangup.
        drop(server);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);

        poller.deregister(client.as_raw_fd()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn deregistered_fd_errors_on_modify() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut poller = Poller::new().unwrap();
        assert!(poller
            .modify(listener.as_raw_fd(), 1, Interest::Read)
            .is_err());
    }

    #[test]
    fn nofile_limit_reports_and_raises() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
        // Asking for what we already have is a no-op success.
        assert!(raise_nofile_limit(soft).unwrap() >= soft);
    }
}
