//! Seeded `raw-syscall` violations: a private `extern "C"` import block
//! and bare libc-level calls, both living outside the one audited shim
//! (`crates/net/src/sys.rs`) where that surface is sanctioned. The calls
//! need `unsafe`, which `unsafe_code` rejects outside that module; the
//! block is `missing_unsafe_on_extern` (the shim's is `unsafe extern`).

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

/// Opens a raw socket directly, bypassing the seal-net sys shim.
pub fn open_raw_socket() -> i32 {
    unsafe { socket(2, 1, 0) }
}

/// Flips a descriptor to non-blocking with a direct `fcntl` call.
pub fn set_nonblocking_raw(fd: i32) -> i32 {
    unsafe { fcntl(fd, 4, 2048) }
}

/// The accepted idioms stay clean: path-qualified calls go through a
/// named, auditable wrapper module, and `bind` on a receiver is std's
/// socket API, not the libc symbol.
pub fn through_the_shim(addr: &str) -> i32 {
    let fd = sys::socket(2, 1, 0);
    sys::listener(fd).bind(addr);
    fd
}

/// A stand-in for the audited shim, so the fixture compiles.
mod sys {
    pub struct Listener;

    impl Listener {
        pub fn bind(&self, _addr: &str) {}
    }

    pub fn socket(_domain: i32, _ty: i32, _protocol: i32) -> i32 {
        -1
    }

    pub fn listener(_fd: i32) -> Listener {
        Listener
    }
}
