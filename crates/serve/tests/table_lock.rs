//! The stream table's lock guards only finding, adding and taking out
//! entries. Tearing a stream down — closing its queues and joining its
//! shard workers once they finish the batches already queued — happens
//! after the lock is released, so no other tenant's lookup waits for it.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tristream_graph::Edge;
use tristream_serve::table::ingest_batch;
use tristream_serve::StreamTable;

/// Edges in the batch queued on the stream being deleted. `neighborhood`
/// advances every one of its estimators on every edge, so the batch keeps
/// the shard worker busy for about half a second after EDGES has returned
/// (release builds process edges about fifteen times faster).
const QUEUED_EDGES: u64 = if cfg!(debug_assertions) { 300 } else { 6_000 };

#[test]
fn a_delete_joining_busy_workers_never_stalls_lookups_of_another_stream() {
    let table = Arc::new(StreamTable::new());
    table
        .create("slow", "neighborhood", 1, 1 << 20, 1, 0)
        .expect("create slow");
    table
        .create("other", "exact", 1, 1 << 14, 1, 0)
        .expect("create other");
    let batch: Vec<Edge> = (0..QUEUED_EDGES).map(|i| Edge::new(i, i + 1)).collect();
    ingest_batch(&table.get("slow").expect("slow exists"), &batch);

    let start = Arc::new(Barrier::new(2));
    let deleter = {
        let (table, start) = (Arc::clone(&table), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            let clock = Instant::now();
            table.delete("slow").expect("delete slow");
            clock.elapsed()
        })
    };
    start.wait();
    let (mut lookups, mut slowest) = (0u64, Duration::ZERO);
    while !deleter.is_finished() {
        let clock = Instant::now();
        assert!(table.get("other").is_some());
        slowest = slowest.max(clock.elapsed());
        lookups += 1;
    }
    let delete = deleter.join().expect("deleter thread");

    assert!(table.get("slow").is_none());
    assert!(lookups > 0, "no lookup ran during the {delete:?} DELETE");
    assert!(
        slowest * 10 < delete,
        "a lookup of another stream took {slowest:?} during a {delete:?} DELETE \
         ({lookups} lookups)"
    );
}
