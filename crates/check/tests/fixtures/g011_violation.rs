//! Fixture: the coordinator pays an edit distance itself instead of
//! routing the verification to the owning shard.
fn refine(snap: &crate::ShardState, g: u32, c: u32, theta: f64) -> bool {
    snap.oracle().ask(g, c, theta).0
}
