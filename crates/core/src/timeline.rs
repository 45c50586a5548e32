//! Execution timelines and per-stage breakdowns (paper Figs. 5, 8, 9).
//!
//! Every decode mode produces a [`Trace`] — a list of labelled spans on the
//! CPU and GPU resources in virtual time — plus a [`Breakdown`] summing each
//! stage. The traces are what the figure benches render; the breakdowns are
//! what Fig. 9 plots.

/// The resource a span occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The (single-threaded) host CPU.
    Cpu,
    /// The GPU's compute engine: the kernels, the device's Huffman passes
    /// of a fed plan (`gpu-huffman` spans) among them. On the paper's
    /// single in-order queue (one entropy thread, `Gpu`, `Sps`, a batched
    /// `Gpu` member) the transfers run here too, one after another with
    /// the kernels. A fed, chunked plan moves them to [`Resource::Copy`],
    /// so this resource's busy time is the kernels alone.
    Gpu,
    /// The GPU's copy engine, beside the compute engine on a fed, chunked
    /// plan (`PipelinedGpu` and `Pps` with more than one entropy thread): a
    /// GTX 560 Ti's one copy engine moves one transfer at a time, in either
    /// direction, while a kernel runs.
    Copy,
}

/// One labelled interval of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage label, e.g. "huffman", "h2d", "idct", "cpu-simd".
    pub label: &'static str,
    /// Which resource executed it.
    pub resource: Resource,
    /// Start time in seconds (virtual).
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A full execution trace of one decode.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All spans, in creation order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Append a span and return its end time.
    pub fn push(&mut self, label: &'static str, resource: Resource, start: f64, end: f64) -> f64 {
        debug_assert!(end >= start, "span {label} ends before it starts");
        self.spans.push(Span {
            label,
            resource,
            start,
            end,
        });
        end
    }

    /// Completion time (makespan) of the whole trace.
    pub fn makespan(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Total busy time of one resource.
    pub fn busy(&self, r: Resource) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.resource == r)
            .map(Span::duration)
            .sum()
    }

    /// Sum of durations for all spans with a label.
    pub fn stage_total(&self, label: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.label == label)
            .map(Span::duration)
            .sum()
    }

    /// Render an ASCII timeline (for examples and debugging), mimicking the
    /// two-column layout of paper Fig. 8.
    pub fn ascii(&self) -> String {
        let mut out = String::new();
        let t_end = self.makespan().max(1e-9);
        out.push_str(&format!(
            "{:<14} {:>9} {:>9}  timeline (makespan {:.3} ms)\n",
            "stage",
            "start",
            "end",
            t_end * 1e3
        ));
        for s in &self.spans {
            let width = 44usize;
            let a = ((s.start / t_end) * width as f64) as usize;
            let b = (((s.end / t_end) * width as f64) as usize)
                .max(a + 1)
                .min(width);
            let mut bar = vec![' '; width];
            let mark = match s.resource {
                Resource::Cpu => '#',
                Resource::Gpu => '=',
                Resource::Copy => '~',
            };
            for c in bar.iter_mut().take(b).skip(a) {
                *c = mark;
            }
            out.push_str(&format!(
                "{:<14} {:>8.3}m {:>8.3}m |{}|\n",
                s.label,
                s.start * 1e3,
                s.end * 1e3,
                bar.into_iter().collect::<String>()
            ));
        }
        out.push_str("(# = CPU, = = GPU compute, ~ = GPU copy engine)\n");
        out
    }
}

/// Per-stage time totals for one decode (the Fig. 9 bars).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// The CPU's Huffman span: its own decoding, sequential or stitching
    /// what the entropy workers decoded, and its waits for their rows and
    /// for the device's decoder state. The device's Huffman is in
    /// [`Self::kernels`].
    pub huffman: f64,
    /// Host→device transfers: coefficients, or a fed plan's scan bytes
    /// and subsequence table.
    pub h2d: f64,
    /// GPU kernel time (all kernels, the device's Huffman passes
    /// included).
    pub kernels: f64,
    /// Device→host transfers: the RGB, and a fed split's decoder-state
    /// read-back.
    pub d2h: f64,
    /// CPU parallel-phase time (scalar or SIMD band).
    pub cpu_parallel: f64,
    /// Host-side dispatch overhead (`Tdisp`).
    pub dispatch: f64,
    /// End-to-end completion time (not the sum — stages overlap).
    pub total: f64,
}

impl Breakdown {
    /// The serial sum of all stages (what the total *would* be with no
    /// overlap) — useful to quantify pipelining gains.
    pub fn serial_sum(&self) -> f64 {
        self.huffman + self.h2d + self.kernels + self.d2h + self.cpu_parallel + self.dispatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_and_busy_account_overlap() {
        let mut t = Trace::default();
        t.push("huffman", Resource::Cpu, 0.0, 2.0);
        t.push("kernel", Resource::Gpu, 1.0, 3.0);
        assert_eq!(t.makespan(), 3.0);
        assert_eq!(t.busy(Resource::Cpu), 2.0);
        assert_eq!(t.busy(Resource::Gpu), 2.0);
        assert_eq!(t.stage_total("huffman"), 2.0);
    }

    #[test]
    fn busy_time_is_per_engine() {
        let mut t = Trace::default();
        t.push("h2d", Resource::Copy, 0.0, 1.0);
        t.push("kernel", Resource::Gpu, 1.0, 3.0);
        t.push("h2d", Resource::Copy, 1.0, 2.0);
        assert_eq!(t.busy(Resource::Gpu), 2.0);
        assert_eq!(t.busy(Resource::Copy), 2.0);
        assert_eq!(t.makespan(), 3.0);
        assert!(t.ascii().contains('~'));
    }

    #[test]
    fn stage_total_sums_repeated_labels() {
        let mut t = Trace::default();
        t.push("h2d", Resource::Gpu, 0.0, 1.0);
        t.push("h2d", Resource::Gpu, 2.0, 2.5);
        assert_eq!(t.stage_total("h2d"), 1.5);
    }

    #[test]
    fn ascii_renders_all_spans() {
        let mut t = Trace::default();
        t.push("huffman", Resource::Cpu, 0.0, 1.0);
        t.push("kernel", Resource::Gpu, 0.5, 2.0);
        let s = t.ascii();
        assert!(s.contains("huffman"));
        assert!(s.contains("kernel"));
        assert!(s.contains('#') && s.contains('='));
    }

    #[test]
    fn breakdown_serial_sum() {
        let b = Breakdown {
            huffman: 1.0,
            h2d: 0.5,
            kernels: 0.25,
            d2h: 0.25,
            cpu_parallel: 1.0,
            dispatch: 0.1,
            total: 2.0,
        };
        assert!((b.serial_sum() - 3.1).abs() < 1e-12);
        assert!(b.total < b.serial_sum());
    }
}
