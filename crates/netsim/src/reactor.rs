//! Readiness-notification plumbing for the shared-reactor transports:
//! a hand-rolled `poll(2)` wrapper, a loopback-datagram waker, and a
//! non-blocking TCP connect helper.
//!
//! The vendored dependency set cannot grow (no `mio`, no `libc`), so
//! the handful of C entry points needed — `poll`, `socket`, `connect`,
//! `close` — are declared directly against the platform libc the
//! standard library already links. Linux-only constants are fine:
//! every supported environment (dev container, CI) is Linux, and the
//! transports built on this module are loopback test backends, not
//! portable production servers.

use std::io;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;
pub(crate) const POLLERR: i16 = 0x008;
pub(crate) const POLLHUP: i16 = 0x010;
pub(crate) const POLLNVAL: i16 = 0x020;

/// Mirrors `struct pollfd` exactly (fd, requested events, returned
/// events); the kernel writes `revents` in place.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Readable, or in a state (`HUP`/`ERR`) a read will diagnose.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Writable, or in a state (`HUP`/`ERR`) a write will diagnose.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn close(fd: i32) -> i32;
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

/// Wakes a thread blocked in [`poll_fds`] from any other thread: the
/// poller includes [`Waker::rx_fd`] in its set, callers fire
/// [`Waker::wake`]. Built on a connected loopback UDP pair — the only
/// self-pipe available without FFI for `pipe(2)`/`eventfd(2)`. An
/// atomic flag coalesces bursts so a storm of wakes costs one
/// datagram, not one per call.
pub(crate) struct Waker {
    tx: UdpSocket,
    rx: UdpSocket,
    armed: AtomicBool,
}

impl Waker {
    pub fn new() -> io::Result<Self> {
        let rx = UdpSocket::bind("127.0.0.1:0")?;
        rx.set_nonblocking(true)?;
        let tx = UdpSocket::bind("127.0.0.1:0")?;
        tx.connect(rx.local_addr()?)?;
        tx.set_nonblocking(true)?;
        Ok(Self {
            tx,
            rx,
            armed: AtomicBool::new(false),
        })
    }

    pub(crate) fn rx_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    pub fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) && self.tx.send(&[1]).is_err() {
            // The send failed, so no datagram is in flight; staying
            // armed would suppress every later wake. Disarm so the
            // next wake retries the send.
            self.armed.store(false, Ordering::Release);
        }
    }

    /// Consumes pending wake datagrams; the poller calls this once per
    /// wakeup, before it rescans its work queues. Order matters:
    /// consuming *before* disarming means a `wake` racing this either
    /// lands while still armed (send skipped — safe, because the
    /// poller's rescan follows the disarm and will observe that
    /// wake's work) or lands after the disarm (datagram left behind —
    /// one spurious poll wakeup). Disarming first would let the recv
    /// loop eat a racing wake's datagram while `armed` stayed true,
    /// suppressing every subsequent wake.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        while self.rx.recv(&mut buf).is_ok() {}
        self.armed.store(false, Ordering::Release);
    }
}

/// Mirrors `struct sockaddr_in`; `port` and `addr` are stored
/// big-endian as the kernel expects.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port: u16,
    addr: u32,
    zero: [u8; 8],
}

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0x800;
const SOCK_CLOEXEC: i32 = 0x80000;
const EINPROGRESS: i32 = 115;

/// Starts a TCP connect without blocking: the returned stream is
/// non-blocking and usually still mid-handshake. Register it for
/// `POLLOUT`; once writable, `take_error()` distinguishes an
/// established connection (`None`) from a refused one. `std` offers no
/// non-blocking connect, hence the raw `socket(2)`/`connect(2)` pair.
/// IPv4 only — these transports bind loopback v4 listeners.
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "non-blocking connect supports IPv4 only",
        ));
    };
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let sa = SockAddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    let rc = unsafe { connect(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) };
    if rc != 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            unsafe { close(fd) };
            return Err(err);
        }
    }
    Ok(unsafe { TcpStream::from_raw_fd(fd) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_when_nothing_is_ready() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.rx_fd(), POLLIN)];
        let t0 = Instant::now();
        let n = poll_fds(&mut fds, 50).unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn waker_unblocks_poll_from_another_thread() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut fds = [PollFd::new(waker.rx_fd(), POLLIN)];
        let n = poll_fds(&mut fds, 2_000).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        waker.drain();
        handle.join().unwrap();
        // Coalescing: many wakes after a drain produce one datagram.
        waker.wake();
        waker.wake();
        waker.wake();
        let mut fds = [PollFd::new(waker.rx_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 1_000).unwrap(), 1);
        waker.drain();
        let mut fds = [PollFd::new(waker.rx_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 20).unwrap(), 0);
    }

    #[test]
    fn nonblocking_connect_completes_against_a_listener() {
        use std::io::{Read, Write};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr).unwrap();
        let mut fds = [PollFd::new(stream.as_raw_fd(), POLLOUT)];
        poll_fds(&mut fds, 2_000).unwrap();
        assert!(fds[0].writable());
        assert!(stream.take_error().unwrap().is_none());
        let (mut served, _) = listener.accept().unwrap();
        (&stream).write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        served.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn nonblocking_connect_to_a_dead_port_reports_through_take_error() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        match connect_nonblocking(&addr) {
            // Loopback may refuse synchronously or via SO_ERROR.
            Err(_) => {}
            Ok(stream) => {
                let mut fds = [PollFd::new(stream.as_raw_fd(), POLLOUT)];
                poll_fds(&mut fds, 2_000).unwrap();
                assert!(
                    stream.take_error().unwrap().is_some(),
                    "connect to a closed port must surface an error"
                );
            }
        }
    }
}
