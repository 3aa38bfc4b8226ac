//! The only unsafe in the serving layer: raw `epoll` syscalls, thin FFI
//! declarations against the platform libc that std already links.
//! Everything above this module is safe code behind the
//! [`super::poll::Poll`] trait.
//!
//! Linux-only by construction (`epoll` is a Linux API); the crate root
//! refuses to compile elsewhere rather than pretending to poll.
#![allow(unsafe_code)]

use super::poll::{Event, Interest, Poll};
use std::io;
use std::os::raw::c_int;
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// `struct epoll_event`. Packed on x86-64 (the kernel ABI carries it
/// unaligned there); naturally aligned on every other architecture.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn interest_mask(interest: Interest) -> u32 {
    let mut m = EPOLLRDHUP;
    if interest.readable {
        m |= EPOLLIN;
    }
    if interest.writable {
        m |= EPOLLOUT;
    }
    m
}

/// Level-triggered `epoll` behind the [`Poll`] seam.
#[derive(Debug)]
pub struct EpollPoll {
    epfd: c_int,
}

impl EpollPoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is an
        // error reported through errno.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { epfd })
    }

    fn ctl(&self, op: c_int, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest_mask(interest),
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev
        };
        // SAFETY: `evp` is either null (DEL, where the kernel ignores it) or
        // a valid pointer to a live EpollEvent for the duration of the call.
        if unsafe { epoll_ctl(self.epfd, op, fd, evp) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for EpollPoll {
    fn drop(&mut self) {
        // SAFETY: closing an owned fd exactly once.
        unsafe { close(self.epfd) };
    }
}

impl Poll for EpollPoll {
    fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::default())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
        };
        // SAFETY: `buf` is a valid writable array of 256 events; the kernel
        // writes at most `maxevents` entries.
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            // A signal interrupting the wait is a zero-event wakeup, not an
            // error: the caller's loop re-enters wait naturally.
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        for ev in buf.iter().take(n as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}
