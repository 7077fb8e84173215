//! Message envelopes, tags and request completion state.

use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A message tag, matched together with the source rank (MPI semantics).
///
/// The runtime composes tags from `(variable, source patch, dest patch,
/// phase)` via [`Tag::compose`]; any scheme that keeps concurrent transfers
/// distinct works.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tag(pub u64);

impl Tag {
    /// Compose a tag from a variable id, source/destination patch ids and a
    /// phase (e.g. coarse/fine exchange round).
    #[inline]
    pub fn compose(var: u8, src_patch: u32, dst_patch: u32, phase: u8) -> Tag {
        // 8 var | 24 src | 24 dst | 8 phase
        Tag(((var as u64) << 56)
            | (((src_patch as u64) & 0xff_ffff) << 32)
            | (((dst_patch as u64) & 0xff_ffff) << 8)
            | phase as u64)
    }

    /// The phase byte (low 8 bits) of this tag.
    #[inline]
    pub fn phase(self) -> u8 {
        (self.0 & 0xff) as u8
    }

    /// The same tag re-stamped with a different phase byte.
    ///
    /// The phase is the only component of a tag that changes between
    /// timesteps, so a compiled graph's tags can be reused across steps by
    /// re-stamping at post time instead of recompiling the whole graph.
    #[inline]
    #[must_use]
    pub fn with_phase(self, phase: u8) -> Tag {
        Tag((self.0 & !0xff) | phase as u64)
    }
}

/// A delivered message: source rank, tag, payload.
#[derive(Clone, Debug)]
pub struct Message {
    pub src: usize,
    pub tag: Tag,
    pub payload: Bytes,
}

#[derive(Debug, Default)]
pub(crate) struct RecvState {
    pub(crate) done: AtomicBool,
    pub(crate) payload: Mutex<Option<Message>>,
    /// Buffer tracker to credit when the payload is consumed (set at
    /// delivery time by the fabric).
    pub(crate) tracker: Mutex<Option<uintah_mem::AllocTracker>>,
}

/// A non-blocking receive handle.
///
/// `test()` mirrors `MPI_Test`: cheap, callable from any thread, and the
/// request-store benchmark hammers it concurrently. The payload is taken
/// exactly once via [`RecvRequest::take`].
#[derive(Clone, Debug)]
pub struct RecvRequest {
    pub(crate) state: Arc<RecvState>,
}

impl RecvRequest {
    /// Has a matching message arrived?
    #[inline]
    pub fn test(&self) -> bool {
        self.state.done.load(Ordering::Acquire)
    }

    /// Take the delivered message. Returns `None` if not yet complete or if
    /// another holder already took it (at-most-once completion — the
    /// property the paper's racy baseline violated).
    pub fn take(&self) -> Option<Message> {
        if !self.test() {
            return None;
        }
        let msg = self.state.payload.lock().take();
        if let Some(m) = &msg {
            // Credit the fabric's buffer accounting: the receive buffer is
            // released exactly once, by the consuming thread.
            if let Some(tracker) = self.state.tracker.lock().take() {
                tracker.on_free(uintah_mem::AllocCategory::MpiBuffer, m.payload.len() as u64);
            }
        }
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_compose_distinct_fields() {
        let a = Tag::compose(1, 2, 3, 4);
        assert_ne!(a, Tag::compose(2, 2, 3, 4));
        assert_ne!(a, Tag::compose(1, 3, 3, 4));
        assert_ne!(a, Tag::compose(1, 2, 4, 4));
        assert_ne!(a, Tag::compose(1, 2, 3, 5));
        assert_eq!(a, Tag::compose(1, 2, 3, 4));
    }

    #[test]
    fn tag_patch_ids_do_not_collide_within_24_bits() {
        // 262k patches (the paper's largest census) fits in 24 bits.
        let t1 = Tag::compose(0, 262_143, 0, 0);
        let t2 = Tag::compose(0, 262_142, 0, 0);
        assert_ne!(t1, t2);
    }

    #[test]
    fn recv_take_is_at_most_once() {
        let state = Arc::new(RecvState::default());
        *state.payload.lock() = Some(Message {
            src: 0,
            tag: Tag(1),
            payload: Bytes::from_static(b"x"),
        });
        state.done.store(true, Ordering::Release);
        let r = RecvRequest { state };
        assert!(r.test());
        assert!(r.take().is_some());
        assert!(r.take().is_none(), "second take must see nothing");
    }
}
