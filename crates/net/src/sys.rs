//! The raw syscall layer: every `libc`-level FFI declaration and every
//! `unsafe` block in seal-net lives in this file, behind safe owned-fd
//! wrappers. `unsafe_code` enforces the boundary: it is denied in every
//! other module of seal-net and forbidden in the crates without `unsafe`,
//! and no syscall can be made without it, so the reactor and frame layers
//! above are safe Rust by construction.
//!
//! The workspace is hermetic (no `libc` crate), so the handful of kernel
//! entry points the reactor needs are declared by hand for the Linux
//! x86-64 ABI the repo targets: `socket`/`bind`/`listen`/`accept4` for the
//! listening edge, `epoll_create1`/`epoll_ctl`/`epoll_wait` for readiness,
//! `read`/`write`/`close` for data, and `pipe2` for the cross-thread wake
//! channel. Errno is read through `std::io::Error::last_os_error`, so no
//! `__errno_location` declaration is needed.

use std::io;

/// The FFI declarations proper, kept in one private module so call sites
/// in this file read as `c::socket(…)` — visibly raw even inside the
/// audited home.
mod c {
    #![allow(non_camel_case_types)]

    pub(crate) type c_int = i32;
    pub(crate) type socklen_t = u32;

    /// IPv4 socket address, laid out as the kernel expects it
    /// (`sin_port`/`sin_addr` in network byte order).
    #[repr(C)]
    pub(crate) struct sockaddr_in {
        pub sin_family: u16,
        pub sin_port: u16,
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    /// One epoll readiness record. x86-64 Linux packs this struct
    /// (no padding between `events` and `data`), so the layout must be
    /// `repr(C, packed)` to match the kernel ABI.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub(crate) struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    unsafe extern "C" {
        pub(crate) fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub(crate) fn bind(fd: c_int, addr: *const sockaddr_in, len: socklen_t) -> c_int;
        pub(crate) fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub(crate) fn connect(fd: c_int, addr: *const sockaddr_in, len: socklen_t) -> c_int;
        pub(crate) fn accept4(
            fd: c_int,
            addr: *mut sockaddr_in,
            len: *mut socklen_t,
            flags: c_int,
        ) -> c_int;
        pub(crate) fn getsockname(fd: c_int, addr: *mut sockaddr_in, len: *mut socklen_t) -> c_int;
        pub(crate) fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_int,
            len: socklen_t,
        ) -> c_int;
        pub(crate) fn epoll_create1(flags: c_int) -> c_int;
        pub(crate) fn epoll_ctl(
            epfd: c_int,
            op: c_int,
            fd: c_int,
            event: *mut epoll_event,
        ) -> c_int;
        pub(crate) fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            max_events: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub(crate) fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub(crate) fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        pub(crate) fn close(fd: c_int) -> c_int;
        pub(crate) fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    }
}

const AF_INET: c::c_int = 2;
const SOCK_STREAM: c::c_int = 1;
const SOCK_NONBLOCK: c::c_int = 0o4000;
const SOCK_CLOEXEC: c::c_int = 0o2000000;
const SOL_SOCKET: c::c_int = 1;
const SO_REUSEADDR: c::c_int = 2;
const SO_SNDBUF: c::c_int = 7;
const SO_RCVBUF: c::c_int = 8;
const IPPROTO_TCP: c::c_int = 6;
const TCP_NODELAY: c::c_int = 1;
const EPOLL_CLOEXEC: c::c_int = 0o2000000;
const EPOLL_CTL_ADD: c::c_int = 1;
const EPOLL_CTL_DEL: c::c_int = 2;
const EPOLL_CTL_MOD: c::c_int = 3;
const O_NONBLOCK: c::c_int = 0o4000;
const O_CLOEXEC: c::c_int = 0o2000000;

/// `epoll_event.events` bit: readable.
const EPOLLIN: u32 = 0x001;
/// `epoll_event.events` bit: writable.
const EPOLLOUT: u32 = 0x004;
/// `epoll_event.events` bit: error on the fd.
const EPOLLERR: u32 = 0x008;
/// `epoll_event.events` bit: hangup.
const EPOLLHUP: u32 = 0x010;
/// `epoll_event.events` bit: peer closed its write half.
const EPOLLRDHUP: u32 = 0x2000;
/// `epoll_event.events` bit: edge-triggered registration.
const EPOLLET: u32 = 1 << 31;

/// errno: operation would block (nonblocking fd has nothing ready).
pub const EAGAIN: i32 = 11;
/// errno: call interrupted by a signal; retry.
pub const EINTR: i32 = 4;
/// errno: the process file-descriptor table is full.
pub const EMFILE: i32 = 24;
/// errno: the system-wide file table is full.
pub const ENFILE: i32 = 23;
/// errno: the pending connection was aborted before accept picked it up.
pub const ECONNABORTED: i32 = 103;

/// `true` when `err` is the nonblocking "would block" condition.
pub fn is_would_block(err: &io::Error) -> bool {
    err.raw_os_error() == Some(EAGAIN)
}

/// `true` when an accept failed because descriptors ran out (`EMFILE` /
/// `ENFILE`) — transient resource pressure the reactor must back off
/// from, not a fatal listener error.
pub fn is_fd_exhausted(err: &io::Error) -> bool {
    matches!(err.raw_os_error(), Some(EMFILE) | Some(ENFILE))
}

/// `true` when the pending connection died in the accept queue
/// (`ECONNABORTED`) — the right response is to keep accepting.
pub fn is_conn_aborted(err: &io::Error) -> bool {
    err.raw_os_error() == Some(ECONNABORTED)
}

/// An owned file descriptor: closed exactly once, on drop.
#[derive(Debug)]
pub struct Fd {
    raw: i32,
}

impl Fd {
    /// Wraps a raw descriptor the kernel just handed us.
    fn from_raw(raw: i32) -> Fd {
        Fd { raw }
    }

    /// The raw descriptor number (for epoll registration keys and logs).
    pub fn raw(&self) -> i32 {
        self.raw
    }

    /// Reads into `buf`, returning the byte count (0 = EOF).
    ///
    /// # Errors
    ///
    /// Propagates the OS error; `EAGAIN` (see [`is_would_block`]) means a
    /// nonblocking fd has nothing ready.
    pub fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        // SAFETY: `buf` is a live, exclusively-borrowed slice, so passing
        // its pointer and `buf.len()` upholds the kernel's contract that
        // the destination is writable for `count` bytes; `self.raw` is an
        // fd this `Fd` owns and has not closed.
        let n = unsafe { c::read(self.raw, buf.as_mut_ptr(), buf.len()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// Writes from `buf`, returning the byte count accepted by the kernel.
    ///
    /// # Errors
    ///
    /// Propagates the OS error; `EAGAIN` means the socket buffer is full.
    pub fn write(&self, buf: &[u8]) -> io::Result<usize> {
        // SAFETY: `buf` is a live borrowed slice, so its pointer is
        // readable for `buf.len()` bytes; `self.raw` is an fd this `Fd`
        // owns and has not closed.
        let n = unsafe { c::write(self.raw, buf.as_ptr(), buf.len()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
}

impl Drop for Fd {
    fn drop(&mut self) {
        // SAFETY: `self.raw` was produced by a successful syscall and is
        // only ever closed here (ownership is unique and `Fd` is not
        // `Clone`), so double-close cannot occur. The result is ignored:
        // there is no recovery from a failed close at drop time.
        let _ = unsafe { c::close(self.raw) };
    }
}

/// Creates a nonblocking IPv4 TCP listener bound to `127.0.0.1:port`
/// (`port` 0 = kernel-assigned) and returns it with the actual bound port.
///
/// # Errors
///
/// Propagates the first failing syscall (`socket`, `setsockopt`, `bind`,
/// `listen` or `getsockname`) as an [`io::Error`].
pub fn listen_tcp(port: u16, backlog: i32) -> io::Result<(Fd, u16)> {
    // SAFETY: plain value arguments; `socket` reads no caller memory.
    let raw = unsafe { c::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if raw < 0 {
        return Err(io::Error::last_os_error());
    }
    let fd = Fd::from_raw(raw);
    let one: c::c_int = 1;
    // SAFETY: `one` is a live stack `c_int` and the passed length is
    // exactly `size_of::<c_int>()`, so the kernel reads only valid memory;
    // `fd` owns the descriptor.
    let rc = unsafe {
        c::setsockopt(
            fd.raw(),
            SOL_SOCKET,
            SO_REUSEADDR,
            &one,
            std::mem::size_of::<c::c_int>() as c::socklen_t,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let addr = c::sockaddr_in {
        sin_family: AF_INET as u16,
        sin_port: port.to_be(),
        sin_addr: u32::from_be_bytes([127, 0, 0, 1]).to_be(),
        sin_zero: [0; 8],
    };
    // SAFETY: `addr` is a live, fully-initialised `sockaddr_in` and the
    // length passed is its exact size, so `bind` reads only valid memory.
    let rc = unsafe {
        c::bind(
            fd.raw(),
            &addr,
            std::mem::size_of::<c::sockaddr_in>() as c::socklen_t,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: plain value arguments; `listen` reads no caller memory.
    let rc = unsafe { c::listen(fd.raw(), backlog) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let mut bound = c::sockaddr_in {
        sin_family: 0,
        sin_port: 0,
        sin_addr: 0,
        sin_zero: [0; 8],
    };
    let mut len = std::mem::size_of::<c::sockaddr_in>() as c::socklen_t;
    // SAFETY: `bound` and `len` are live stack values sized exactly as
    // `len` reports, so the kernel writes only within them.
    let rc = unsafe { c::getsockname(fd.raw(), &mut bound, &mut len) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((fd, u16::from_be(bound.sin_port)))
}

/// Accepts one pending connection as a nonblocking fd; `Ok(None)` when the
/// accept queue is empty (the `EAGAIN` edge-trigger contract).
///
/// # Errors
///
/// Propagates accept failures other than `EAGAIN`/`EINTR`.
pub fn accept_nonblocking(listener: &Fd) -> io::Result<Option<Fd>> {
    // SAFETY: null `addr`/`len` are explicitly allowed by `accept4` (peer
    // address discarded); `listener` owns a live listening descriptor.
    let raw = unsafe {
        c::accept4(
            listener.raw(),
            std::ptr::null_mut(),
            std::ptr::null_mut(),
            SOCK_NONBLOCK | SOCK_CLOEXEC,
        )
    };
    if raw >= 0 {
        return Ok(Some(Fd::from_raw(raw)));
    }
    let err = io::Error::last_os_error();
    match err.raw_os_error() {
        Some(EAGAIN) | Some(EINTR) => Ok(None),
        _ => Err(err),
    }
}

/// Disables Nagle batching on an accepted socket so small response frames
/// flush immediately.
///
/// # Errors
///
/// Propagates the `setsockopt` failure.
pub fn set_nodelay(fd: &Fd) -> io::Result<()> {
    let one: c::c_int = 1;
    // SAFETY: `one` is a live stack `c_int` and the length passed is its
    // exact size; `fd` owns a live descriptor.
    let rc = unsafe {
        c::setsockopt(
            fd.raw(),
            IPPROTO_TCP,
            TCP_NODELAY,
            &one,
            std::mem::size_of::<c::c_int>() as c::socklen_t,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Caps the kernel send buffer on an accepted socket. Setting an explicit
/// size also disables send-buffer autotuning, which is what makes the
/// slow-reader reaper's overflow condition deterministic in tests and
/// chaos runs (the kernel can no longer grow the buffer under pressure).
///
/// # Errors
///
/// Propagates the `setsockopt` failure.
pub fn set_sndbuf(fd: &Fd, bytes: usize) -> io::Result<()> {
    let val: c::c_int = bytes.min(i32::MAX as usize) as c::c_int;
    // SAFETY: `val` is a live stack `c_int` and the length passed is its
    // exact size; `fd` owns a live descriptor.
    let rc = unsafe {
        c::setsockopt(
            fd.raw(),
            SOL_SOCKET,
            SO_SNDBUF,
            &val,
            std::mem::size_of::<c::c_int>() as c::socklen_t,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Connects a blocking loopback TCP socket whose receive buffer is capped
/// at `rcvbuf` bytes *before* the connection is established (the cap must
/// precede `connect` to take effect on the window and to disable receive
/// autotuning). Used by slow-reader chaos probes: a tiny client window
/// forces server-side reply bytes to pile up in the server's outbox.
///
/// Returns a `std::net::TcpStream` so callers compose with the ordinary
/// blocking client machinery.
///
/// # Errors
///
/// Propagates `socket`/`setsockopt`/`connect` failures.
pub fn connect_tcp_rcvbuf(port: u16, rcvbuf: usize) -> io::Result<std::net::TcpStream> {
    // SAFETY: plain value arguments; `socket` reads no caller memory.
    let raw = unsafe { c::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if raw < 0 {
        return Err(io::Error::last_os_error());
    }
    let fd = Fd::from_raw(raw);
    let val: c::c_int = rcvbuf.min(i32::MAX as usize) as c::c_int;
    // SAFETY: `val` is a live stack `c_int` and the length passed is its
    // exact size; `fd` owns a live descriptor.
    let rc = unsafe {
        c::setsockopt(
            fd.raw(),
            SOL_SOCKET,
            SO_RCVBUF,
            &val,
            std::mem::size_of::<c::c_int>() as c::socklen_t,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let addr = c::sockaddr_in {
        sin_family: AF_INET as u16,
        sin_port: port.to_be(),
        sin_addr: u32::from_be_bytes([127, 0, 0, 1]).to_be(),
        sin_zero: [0; 8],
    };
    // SAFETY: `addr` is a live, fully-initialised `sockaddr_in` and the
    // length passed is its exact size, so `connect` reads only valid
    // memory; `fd` owns the descriptor.
    let rc = unsafe {
        c::connect(
            fd.raw(),
            &addr,
            std::mem::size_of::<c::sockaddr_in>() as c::socklen_t,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let raw = fd.raw();
    // Hand ownership to the TcpStream: forget the Fd so its Drop does not
    // close the descriptor the stream now owns.
    std::mem::forget(fd);
    // SAFETY: `raw` is a live, connected socket descriptor whose `Fd`
    // wrapper was just forgotten, so `from_raw_fd` takes sole ownership
    // and no double-close can occur.
    Ok(unsafe { <std::net::TcpStream as std::os::fd::FromRawFd>::from_raw_fd(raw) })
}

/// What a connection is registered for, beyond the always-on read interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Also watch for writability (pending outbound bytes).
    pub writable: bool,
}

/// One decoded readiness event out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `token` the fd was registered with.
    pub token: u64,
    /// Readable (or accept-ready, for the listener).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup: the connection is dead or half-closed.
    pub closed: bool,
}

/// An owned epoll instance. All registrations are edge-triggered
/// (`EPOLLET`), matching the reactor's drain-until-`EAGAIN` state machine.
#[derive(Debug)]
pub struct Epoll {
    fd: Fd,
}

impl Epoll {
    /// Creates the epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain value argument; `epoll_create1` reads no caller
        // memory.
        let raw = unsafe { c::epoll_create1(EPOLL_CLOEXEC) };
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            fd: Fd::from_raw(raw),
        })
    }

    fn ctl(&self, op: c::c_int, fd: &Fd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = c::epoll_event {
            events: EPOLLIN | EPOLLRDHUP | EPOLLET | if interest.writable { EPOLLOUT } else { 0 },
            data: token,
        };
        // SAFETY: `ev` is a live, initialised `epoll_event` the kernel
        // only reads; `fd` owns a live descriptor and `self` owns the
        // epoll instance.
        let rc = unsafe { c::epoll_ctl(self.fd.raw(), op, fd.raw(), &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` (edge-triggered, always readable-
    /// interested, plus `interest.writable`).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn add(&self, fd: &Fd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Re-arms `fd`'s registration with a new interest set.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: &Fd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the interest set (must precede closing it while
    /// the reactor still holds readiness records for its token).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn delete(&self, fd: &Fd) -> io::Result<()> {
        let mut ev = c::epoll_event { events: 0, data: 0 };
        // SAFETY: `ev` is live (pre-2.6.9 kernels dereference it even for
        // delete); `fd` owns a live descriptor registered on this epoll.
        let rc = unsafe { c::epoll_ctl(self.fd.raw(), EPOLL_CTL_DEL, fd.raw(), &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks up to `timeout_ms` (−1 = forever) and appends decoded events
    /// to `out`, returning how many arrived. `EINTR` retries internally.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures other than `EINTR`.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let mut buf = [c::epoll_event { events: 0, data: 0 }; 64];
        loop {
            // SAFETY: `buf` is a live stack array of 64 initialised
            // `epoll_event` records and `max_events` is exactly its
            // length, so the kernel writes only within it.
            let n = unsafe {
                c::epoll_wait(
                    self.fd.raw(),
                    buf.as_mut_ptr(),
                    buf.len() as c::c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                for ev in buf.iter().take(n as usize) {
                    // Copy out of the packed struct before testing bits
                    // (no references into packed fields).
                    let bits = ev.events;
                    let token = ev.data;
                    out.push(Event {
                        token,
                        readable: bits & EPOLLIN != 0,
                        writable: bits & EPOLLOUT != 0,
                        closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    });
                }
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINTR) {
                return Err(err);
            }
            // Interrupted by a signal: fall through and re-enter the wait.
        }
    }
}

/// A nonblocking self-wake pipe: worker threads write a byte to pull the
/// reactor out of `epoll_wait` when responses are ready to flush.
#[derive(Debug)]
pub struct WakePipe {
    reader: Fd,
    writer: Fd,
}

impl WakePipe {
    /// Creates the pipe (both ends nonblocking).
    ///
    /// # Errors
    ///
    /// Propagates `pipe2` failure.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds: [c::c_int; 2] = [-1, -1];
        // SAFETY: `fds` is a live two-element array, exactly what `pipe2`
        // writes into.
        let rc = unsafe { c::pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe {
            reader: Fd::from_raw(fds[0]),
            writer: Fd::from_raw(fds[1]),
        })
    }

    /// The read end, for epoll registration.
    pub fn reader(&self) -> &Fd {
        &self.reader
    }

    /// Nudges the reactor. A full pipe means a wake is already pending, so
    /// `EAGAIN` counts as success; other errors are reported.
    ///
    /// # Errors
    ///
    /// Propagates unexpected `write` failures (a closed read end).
    pub fn wake(&self) -> io::Result<()> {
        match self.writer.write(&[1u8]) {
            Ok(_) => Ok(()),
            Err(e) if is_would_block(&e) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Drains pending wake bytes so the edge-triggered registration
    /// re-arms.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match self.reader.read(&mut buf) {
                Ok(n) if n == buf.len() => {}
                // Short read, EOF, or EAGAIN: the pipe is drained (or
                // empty); either way the edge is consumed.
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn listener_binds_and_reports_port() {
        let (fd, port) = listen_tcp(0, 16).unwrap();
        assert!(port > 0);
        assert!(fd.raw() >= 0);
        // Nothing queued yet: nonblocking accept sees an empty queue.
        assert!(accept_nonblocking(&fd).unwrap().is_none());
    }

    #[test]
    fn accept_and_exchange_bytes() {
        let (listener, port) = listen_tcp(0, 16).unwrap();
        let mut client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        // Give the kernel a beat to queue the connection.
        let conn = loop {
            if let Some(c) = accept_nonblocking(&listener).unwrap() {
                break c;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        set_nodelay(&conn).unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let mut buf = [0u8; 16];
        let n = loop {
            match conn.read(&mut buf) {
                Ok(n) => break n,
                Err(e) if is_would_block(&e) => {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                }
                Err(e) => panic!("read: {e}"),
            }
        };
        assert_eq!(&buf[..n], b"ping");
        assert_eq!(conn.write(b"pong").unwrap(), 4);
        let mut back = [0u8; 4];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"pong");
    }

    #[test]
    fn epoll_sees_listener_readiness() {
        let epoll = Epoll::new().unwrap();
        let (listener, port) = listen_tcp(0, 16).unwrap();
        epoll
            .add(&listener, 7, Interest { writable: false })
            .unwrap();
        let mut events = Vec::new();
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        let _client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        epoll.delete(&listener).unwrap();
    }

    #[test]
    fn accept_errno_classification() {
        assert!(is_fd_exhausted(&io::Error::from_raw_os_error(EMFILE)));
        assert!(is_fd_exhausted(&io::Error::from_raw_os_error(ENFILE)));
        assert!(!is_fd_exhausted(&io::Error::from_raw_os_error(
            ECONNABORTED
        )));
        assert!(is_conn_aborted(&io::Error::from_raw_os_error(ECONNABORTED)));
        assert!(!is_conn_aborted(&io::Error::from_raw_os_error(EAGAIN)));
        assert!(is_would_block(&io::Error::from_raw_os_error(EAGAIN)));
    }

    #[test]
    fn rcvbuf_capped_connect_exchanges_bytes() {
        let (listener, port) = listen_tcp(0, 16).unwrap();
        let mut client = connect_tcp_rcvbuf(port, 8192).unwrap();
        let conn = loop {
            if let Some(c) = accept_nonblocking(&listener).unwrap() {
                break c;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        set_sndbuf(&conn, 8192).unwrap();
        client.write_all(b"tiny").unwrap();
        let mut buf = [0u8; 8];
        let n = loop {
            match conn.read(&mut buf) {
                Ok(n) => break n,
                Err(e) if is_would_block(&e) => {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                }
                Err(e) => panic!("read: {e}"),
            }
        };
        assert_eq!(&buf[..n], b"tiny");
        assert_eq!(conn.write(b"ok").unwrap(), 2);
        let mut back = [0u8; 2];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ok");
    }

    #[test]
    fn wake_pipe_roundtrip() {
        let epoll = Epoll::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        epoll
            .add(pipe.reader(), 99, Interest { writable: false })
            .unwrap();
        pipe.wake().unwrap();
        pipe.wake().unwrap(); // coalesces, never blocks
        let mut events = Vec::new();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        pipe.drain();
        events.clear();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}
