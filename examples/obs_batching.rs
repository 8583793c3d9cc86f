//! Deterministic batching observability demo.
//!
//! Runs a *single-threaded*, fixed choreography of batch queue operations
//! — batch puts that fill the queue exactly, bounded `take_batch`es and
//! whole-buffer drains — and prints the resulting process-wide `obs`
//! snapshot. Because no schedule nondeterminism is involved, **two runs of
//! this example print byte-identical output**; `scripts/examples_smoke.sh`
//! exploits that to pin the `blockingq.queue.batch_fill` accounting (chunk
//! sizes, counts, and the batch_puts/batch_takes split) against accidental
//! drift.
//!
//! Run with: `cargo run --example obs_batching`

use concurrent_generators::blockingq::BlockingQueue;
use concurrent_generators::obs;

fn main() {
    let q: BlockingQueue<u32> = BlockingQueue::bounded(8);

    // Two batch puts: fills 5 and 3 (queue now exactly full).
    q.put_all((0..5).collect()).expect("open");
    q.put_all((5..8).collect()).expect("open");

    // Bounded batch take (4) then a whole-buffer drain (4).
    let first = q.take_batch(4).expect("data").len();
    let mut buf = Vec::new();
    let drained = q.drain_into(&mut buf);

    // One batch exactly the size of the emptied queue: fill 8.
    let refill = 8;
    q.put_all((100..100 + refill).collect()).expect("open");

    // Empty the queue again: a capped take (3) and a final drain (5).
    let second = q.take_batch(3).expect("data").len();
    let tail = q.drain_into(&mut buf);
    q.close();

    println!(
        "choreography: take1={first} drain1={drained} refill={refill} \
         take2={second} drain2={tail}"
    );
    // The snapshot is sorted and rendered deterministically; with the
    // `obs` feature off it is simply empty (and still deterministic).
    print!("{}", obs::snapshot().render_text());
}
