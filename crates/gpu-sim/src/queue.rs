//! Asynchronous in-order command queue on a virtual device timeline.
//!
//! "All OpenCL commands are executed asynchronously. Hence, the CPU can
//! resume Huffman decoding immediately for the second chunk" (paper §4.5).
//! The scheduler enqueues work with a *host-side ready time*; the queue
//! serializes commands on the device timeline and reports per-command
//! [`Event`] timestamps, the equivalent of the OpenCL event profiler the
//! paper uses for measurements (§5.1).
//!
//! One queue is one engine: its commands run one at a time, in the order
//! they are enqueued. The paper's schedule puts transfers and kernels on
//! one in-order queue, so they serialize. That is a modelling choice, not a
//! limit of the hardware: a consumer Fermi such as the GTX 560 Ti (GF114)
//! has one copy engine, which moves one transfer at a time, in either
//! direction, while a kernel runs. A scheduler models it with a second
//! queue beside the compute queue, each command ready when what it depends
//! on has finished on the other.

/// Timestamped execution record of one enqueued command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When the command became eligible (host enqueue / dependency time).
    pub ready: f64,
    /// When the device started executing it.
    pub start: f64,
    /// When it finished.
    pub end: f64,
}

impl Event {
    /// Time spent queued behind earlier commands.
    pub fn queue_wait(&self) -> f64 {
        self.start - self.ready
    }

    /// Execution duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-order virtual-time command queue.
#[derive(Debug, Clone, Default)]
pub struct CommandQueue {
    /// When the device engine becomes free.
    device_free_at: f64,
    /// All events in enqueue order (the profiling trace).
    events: Vec<(&'static str, Event)>,
}

impl CommandQueue {
    /// Create an idle queue at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a command that becomes ready at host time `ready` and runs
    /// for `duration` device seconds. Returns its event.
    pub fn enqueue(&mut self, label: &'static str, ready: f64, duration: f64) -> Event {
        let start = self.device_free_at.max(ready);
        let end = start + duration;
        self.device_free_at = end;
        let ev = Event { ready, start, end };
        self.events.push((label, ev));
        ev
    }

    /// Time at which everything enqueued so far has finished.
    pub fn drain_time(&self) -> f64 {
        self.device_free_at
    }

    /// The recorded trace (label, event) in enqueue order.
    pub fn trace(&self) -> &[(&'static str, Event)] {
        &self.events
    }

    /// Total device-busy time.
    pub fn busy_time(&self) -> f64 {
        self.events.iter().map(|(_, e)| e.duration()).sum()
    }

    /// Total idle gaps between commands (device waiting on the host —
    /// exactly what pipelining is meant to shrink).
    pub fn idle_time(&self) -> f64 {
        let mut idle = 0.0;
        let mut prev_end = 0.0;
        for (_, e) in &self.events {
            if e.start > prev_end {
                idle += e.start - prev_end;
            }
            prev_end = e.end;
        }
        idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_execution_serializes() {
        let mut q = CommandQueue::new();
        let a = q.enqueue("write", 0.0, 2.0);
        let b = q.enqueue("kernel", 0.0, 3.0);
        assert_eq!(a.start, 0.0);
        assert_eq!(a.end, 2.0);
        assert_eq!(b.start, 2.0); // waits for a despite being ready at 0
        assert_eq!(b.end, 5.0);
        assert_eq!(q.drain_time(), 5.0);
        assert_eq!(b.queue_wait(), 2.0);
    }

    #[test]
    fn late_ready_time_stalls_device() {
        let mut q = CommandQueue::new();
        q.enqueue("k1", 0.0, 1.0);
        let b = q.enqueue("k2", 4.0, 1.0); // host not ready until t=4
        assert_eq!(b.start, 4.0);
        assert_eq!(q.idle_time(), 3.0);
        assert_eq!(q.busy_time(), 2.0);
    }

    #[test]
    fn pipelined_chunks_overlap_host_work() {
        // Mimic Fig. 5(b): three chunks, each Huffman-decoded (host) then
        // processed (device). Host chunk i completes at (i+1)*2.0; device
        // processing takes 1.5 per chunk.
        let mut q = CommandQueue::new();
        for i in 0..3 {
            let ready = (i + 1) as f64 * 2.0;
            q.enqueue("chunk", ready, 1.5);
        }
        // Device finishes 1.5 after the last chunk is ready: total 7.5,
        // well under the serial 6.0 + 4.5 = 10.5.
        assert_eq!(q.drain_time(), 7.5);
    }

    #[test]
    fn trace_is_recorded_in_enqueue_order() {
        let mut q = CommandQueue::new();
        q.enqueue("a", 0.0, 1.0);
        q.enqueue("b", 0.0, 1.0);
        let labels: Vec<&str> = q.trace().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["a", "b"]);
    }
}
