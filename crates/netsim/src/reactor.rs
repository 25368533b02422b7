//! The syscalls under the event loop: an `epoll(7)` set, an
//! `eventfd(2)`, a `timerfd(2)`, and a one-fd `poll(2)` for a caller
//! reading or writing its own socket. The vendored dependency set
//! cannot grow (no `mio`, no `libc`), so the C entry points are
//! declared against the libc `std` already links; the constants are
//! Linux's, like every environment these loopback test backends run
//! in.

use std::fs::File;
use std::io::{self, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
/// `epoll` bits (`IN`/`OUT`/`ERR`/`HUP` equal their `poll` twins).
pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
const EPOLLERR_HUP: u32 = 0x018;
/// Disarm the fd once it reports; `EPOLL_CTL_MOD` re-arms it.
pub(crate) const EPOLLONESHOT: u32 = 1 << 30;
/// Report each expiry once (no re-report while it stays readable).
pub(crate) const EPOLLET: u32 = 1 << 31;
pub(crate) const EPOLL_CTL_ADD: i32 = 1;
pub(crate) const EPOLL_CTL_DEL: i32 = 2;
pub(crate) const EPOLL_CTL_MOD: i32 = 3;
/// `O_CLOEXEC` and `O_NONBLOCK`, as every creating call here spells them.
const CLOEXEC: i32 = 0x80000;
const NONBLOCK: i32 = 0x800;

/// Mirrors `struct pollfd`; the kernel writes `revents` in place.
#[repr(C)]
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

/// The readiness one `epoll` event reported; `HUP`/`ERR` count as both,
/// for the read or write to diagnose.
#[derive(Clone, Copy)]
pub(crate) struct Ready(pub u32);

impl Ready {
    pub fn readable(self) -> bool {
        self.0 & (EPOLLIN | EPOLLERR_HUP) != 0
    }

    pub fn writable(self) -> bool {
        self.0 & (EPOLLOUT | EPOLLERR_HUP) != 0
    }
}

/// Mirrors `struct epoll_event`, which x86-64 packs.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    /// `spec` is a `struct itimerspec`: interval, then value, each
    /// seconds and nanoseconds.
    fn timerfd_settime(fd: i32, flags: i32, spec: *const [i64; 4], old: *mut [i64; 4]) -> i32;
}

/// Wraps a returned fd, or the error a negative return means.
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// `poll(2)` over the given descriptors; retries `EINTR`, returns the
/// ready count (0 on timeout). `timeout_ms < 0` blocks indefinitely.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One `epoll` set; any thread may change it while others wait.
pub(crate) struct Epoll(OwnedFd);

impl Epoll {
    pub(crate) fn new() -> io::Result<Self> {
        owned(unsafe { epoll_create1(CLOEXEC) }).map(Self)
    }

    /// `EPOLL_CTL_*` `op` on `fd`, reporting `events` under `token`.
    pub(crate) fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        match unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd, &mut event) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// Blocks for one event (`maxevents = 1`), retrying `EINTR`: its
    /// token and readiness, or `None` after `timeout_ms` (< 0: never).
    pub(crate) fn wait_one(&self, timeout_ms: i32) -> io::Result<Option<(u64, Ready)>> {
        let mut event = EpollEvent { events: 0, data: 0 };
        loop {
            match unsafe { epoll_wait(self.0.as_raw_fd(), &mut event, 1, timeout_ms) } {
                1 => return Ok(Some((event.data, Ready(event.events)))),
                0 => return Ok(None),
                _ if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted => {}
                _ => return Err(io::Error::last_os_error()),
            }
        }
    }
}

/// An `eventfd(2)`: [`signal`] makes it readable for good.
pub(crate) fn eventfd_new() -> io::Result<File> {
    owned(unsafe { eventfd(0, CLOEXEC | NONBLOCK) }).map(File::from)
}

pub(crate) fn signal(eventfd: &File) {
    // Fails only when the counter would overflow: already readable.
    let _ = (&*eventfd).write(&1u64.to_ne_bytes());
}

/// A monotonic `timerfd(2)`, readable once its deadline passes.
pub(crate) fn timerfd_new() -> io::Result<OwnedFd> {
    owned(unsafe { timerfd_create(1, CLOEXEC | NONBLOCK) })
}

/// Arms `timer` to fire once, `after` from now; `None` disarms.
pub(crate) fn set_timer(timer: &OwnedFd, after: Option<Duration>) {
    // An all-zero value disarms, so an armed timer waits at least 1 ns.
    let after = after.map_or(Duration::ZERO, |d| d.max(Duration::from_nanos(1)));
    let spec = [
        0,
        0,
        after.as_secs() as i64,
        i64::from(after.subsec_nanos()),
    ];
    // Fails only on a bad fd or spec, neither of which this builds.
    let _ = unsafe { timerfd_settime(timer.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::time::Instant;

    fn pollfd(fd: RawFd, events: i16) -> [PollFd; 1] {
        [PollFd {
            fd,
            events,
            revents: 0,
        }]
    }

    #[test]
    fn poll_times_out_when_nothing_is_ready() {
        let quiet = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut fds = pollfd(quiet.as_raw_fd(), POLLIN);
        let t0 = Instant::now();
        let n = poll_fds(&mut fds, 50).unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn eventfd_unblocks_epoll_wait_from_another_thread() {
        let epoll = Epoll::new().unwrap();
        let stop = std::sync::Arc::new(eventfd_new().unwrap());
        epoll
            .ctl(EPOLL_CTL_ADD, stop.as_raw_fd(), EPOLLIN, 7)
            .unwrap();
        assert!(epoll.wait_one(20).unwrap().is_none());
        let remote = stop.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            signal(&remote);
        });
        let (token, ready) = epoll.wait_one(2_000).unwrap().expect("woken");
        assert_eq!(token, 7);
        assert!(ready.readable());
        handle.join().unwrap();
        // Level-triggered and never drained: every later wait sees it.
        assert!(epoll.wait_one(0).unwrap().is_some());
    }

    #[test]
    fn a_one_shot_fd_reports_once_until_re_armed() {
        let epoll = Epoll::new().unwrap();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (fd, events) = (sock.as_raw_fd(), EPOLLIN | EPOLLONESHOT);
        epoll.ctl(EPOLL_CTL_ADD, fd, events, 3).unwrap();
        let poke = UdpSocket::bind("127.0.0.1:0").unwrap();
        poke.send_to(&[1], sock.local_addr().unwrap()).unwrap();
        assert_eq!(epoll.wait_one(2_000).unwrap().map(|e| e.0), Some(3));
        // Still readable, but disarmed.
        assert!(epoll.wait_one(20).unwrap().is_none());
        epoll.ctl(EPOLL_CTL_MOD, fd, events, 4).unwrap();
        assert_eq!(epoll.wait_one(2_000).unwrap().map(|e| e.0), Some(4));
        let timer = timerfd_new().unwrap();
        let events = EPOLLIN | EPOLLET;
        epoll
            .ctl(EPOLL_CTL_ADD, timer.as_raw_fd(), events, 5)
            .unwrap();
        set_timer(&timer, Some(Duration::from_millis(10)));
        assert_eq!(epoll.wait_one(2_000).unwrap().map(|e| e.0), Some(5));
        set_timer(&timer, None);
        assert!(epoll.wait_one(30).unwrap().is_none());
    }
}
