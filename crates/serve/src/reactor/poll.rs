//! The readiness-notification seam: a minimal [`Poll`] trait with a real
//! epoll implementation ([`super::sys::EpollPoll`]) and a deterministic
//! scripted [`MockPoll`] for unit tests.
//!
//! The trait is deliberately level-triggered and tiny — register/modify/
//! deregister interest per fd plus one blocking wait — because everything
//! else (slabs, state machines, backpressure) lives above the seam where it
//! can be tested without a kernel.

use std::collections::VecDeque;
use std::io;
use std::time::Duration;

/// One readiness event delivered by [`Poll::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is (claimed to be) readable. Level-triggered and advisory:
    /// the consumer must tolerate spurious readiness (a read that returns
    /// `WouldBlock` immediately).
    pub readable: bool,
    /// The fd is (claimed to be) writable. Same advisory caveat.
    pub writable: bool,
    /// The peer hung up or the fd errored; the connection should be torn
    /// down after a final drain attempt.
    pub hangup: bool,
}

/// Readiness interest for one registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

/// A level-triggered readiness selector over raw fds.
///
/// `fd` is an opaque integer key here: the epoll implementation passes it to
/// the kernel, the mock merely records it — which is what lets reactor logic
/// run under tests with fake fds and scripted readiness.
pub trait Poll {
    /// Starts watching `fd` with `interest`; events carry `token`.
    fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()>;
    /// Replaces the interest set (and token) of a watched fd.
    fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()>;
    /// Stops watching a fd.
    fn deregister(&mut self, fd: i32) -> io::Result<()>;
    /// Blocks up to `timeout` for events, appending them to `out`. Returns
    /// the number of events delivered; zero means the wait timed out.
    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize>;
}

/// A recorded interest-table mutation, for asserting registration protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOp {
    /// `register(fd, token, interest)`.
    Register(i32, u64, Interest),
    /// `modify(fd, token, interest)`.
    Modify(i32, u64, Interest),
    /// `deregister(fd)`.
    Deregister(i32),
}

/// Deterministic scripted [`Poll`]: each [`MockPoll::wait`] call pops the
/// next scripted batch of events verbatim — including events for tokens
/// that were deregistered in the meantime (the stale-event race a real
/// kernel can produce) and events for fds that will immediately return
/// `WouldBlock` (spurious wakeups). An exhausted script times out forever.
#[derive(Debug, Default)]
pub struct MockPoll {
    script: VecDeque<Vec<Event>>,
    /// Every interest-table mutation, in call order.
    pub ops: Vec<PollOp>,
    /// Current interest per fd (register/modify state; removed on
    /// deregister). Kept as a plain vec so tests can assert exact contents.
    pub table: Vec<(i32, u64, Interest)>,
}

impl MockPoll {
    /// An empty mock with no scripted events.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one batch of events to deliver on a future `wait`.
    pub fn push_batch(&mut self, events: Vec<Event>) {
        self.script.push_back(events);
    }

    /// The recorded interest for `fd`, if still registered.
    pub fn interest_of(&self, fd: i32) -> Option<Interest> {
        self.table
            .iter()
            .find(|(f, _, _)| *f == fd)
            .map(|&(_, _, i)| i)
    }
}

impl Poll for MockPoll {
    fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        if self.table.iter().any(|(f, _, _)| *f == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("fd {fd} is already registered"),
            ));
        }
        self.ops.push(PollOp::Register(fd, token, interest));
        self.table.push((fd, token, interest));
        Ok(())
    }

    fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let Some(entry) = self.table.iter_mut().find(|(f, _, _)| *f == fd) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("fd {fd} is not registered"),
            ));
        };
        entry.1 = token;
        entry.2 = interest;
        self.ops.push(PollOp::Modify(fd, token, interest));
        Ok(())
    }

    fn deregister(&mut self, fd: i32) -> io::Result<()> {
        let before = self.table.len();
        self.table.retain(|(f, _, _)| *f != fd);
        if self.table.len() == before {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("fd {fd} is not registered"),
            ));
        }
        self.ops.push(PollOp::Deregister(fd));
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, _timeout: Option<Duration>) -> io::Result<usize> {
        match self.script.pop_front() {
            Some(batch) => {
                let n = batch.len();
                out.extend(batch);
                Ok(n)
            }
            None => Ok(0),
        }
    }
}
