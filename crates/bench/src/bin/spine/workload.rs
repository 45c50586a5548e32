//! The six workloads: what each sets up, what one op is, how ops are
//! timed, and how every op's pixels are checked.
//!
//! All six are closed loops driven from this process with at most `nproc`
//! (= 2) callers: the `lib_*` and `hetero_auto` workloads are one thread
//! calling `Decoder::decode`; the `serve_*` workloads are two keep-alive
//! TCP connections at depth 1. Sessions use `threads(2)`, servers two
//! shards. Timing proceeds in whole passes over the corpus, so every slot
//! of the pass (an image, sent with one framing) collects the same number
//! of samples.

use crate::corpus::{self, Image};
use crate::measure::median;
use crate::surface::{
    self, Decoder, Framing, FrontEnd, FrontEndStats, Mode, PerformanceModel, Server, ServerReply,
    ServerStats,
};
use crate::trace::Tracer;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LibDense,
    LibSparse,
    LibProgressive,
    HeteroAuto,
    ServeSmall,
    ServeStream,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub kind: Kind,
}

pub const ALL: [Workload; 6] = [
    Workload {
        name: "lib_dense",
        why: "Decoder::decode, Simd, 1 MP q95 4:4:4 high detail: Huffman and dense-class IDCT dominate, upsampling does nothing",
        kind: Kind::LibDense,
    },
    Workload {
        name: "lib_sparse",
        why: "same path, 3 MP q75 4:2:0 low detail: DC-only/2x2 IDCT, h2v2 upsample, colour and bytes moved dominate; an IDCT-dense or Huffman win should not move it",
        kind: Kind::LibSparse,
    },
    Workload {
        name: "lib_progressive",
        why: "same session layer, 1 MP SOF2 Standard10 q85 4:2:0: ten passes over the coefficient buffer and the separate progressive body; catches multi-scan regressing while baseline holds",
        kind: Kind::LibProgressive,
    },
    Workload {
        name: "hetero_auto",
        why: "the paper's experiment: profile::train for the GTX 560 at set-up, then Mode::Auto over a disjoint 63-image test set; wall measures the simulator host, virtual is the reproduction's headline",
        kind: Kind::HeteroAuto,
    },
    Workload {
        name: "serve_small",
        why: "loopback TCP through FrontEnd, 2 connections, v1/v2 whole-frame thumbnails, server pinned to Simd: wire parse, admission, coalesce window and reply pump are nearly the whole latency",
        kind: Kind::ServeSmall,
    },
    Workload {
        name: "serve_stream",
        why: "same server used the other way: 1 MP images as 3 MB CRC'd row-tile streams; the tile pool, reply writes and loop tick dominate, not small-frame overheads",
        kind: Kind::ServeStream,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// `(name, why)` pairs for the manifest.
pub fn catalogue() -> Vec<(&'static str, &'static str)> {
    ALL.iter().map(|w| (w.name, w.why)).collect()
}

impl Kind {
    /// The mode the workload's ops decode in.
    pub fn mode(self) -> Mode {
        match self {
            Kind::HeteroAuto => Mode::Auto,
            _ => Mode::Simd,
        }
    }

    pub fn served(self) -> bool {
        matches!(self, Kind::ServeSmall | Kind::ServeStream)
    }

    /// Request framings one pass sends per image on a connection.
    pub fn framings(self) -> &'static [Framing] {
        match self {
            Kind::ServeSmall => &[Framing::V1, Framing::V2],
            Kind::ServeStream => &[Framing::V2Streaming],
            _ => &[],
        }
    }
}

/// A started server with its event front end on a loopback port.
pub struct Service {
    pub server: Server,
    pub front_end: Arc<FrontEnd>,
    pub addr: SocketAddr,
    loop_thread: JoinHandle<()>,
}

impl Service {
    pub fn start(mode: Mode) -> Service {
        let server = surface::start_server(mode);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let front_end = Arc::new(
            surface::front_end(server.handle(), listener).expect("front end construction"),
        );
        let fe = Arc::clone(&front_end);
        let loop_thread = std::thread::Builder::new()
            .name("spine-front-end".into())
            .spawn(move || {
                surface::run_front_end(&fe).expect("front-end loop");
            })
            .expect("spawn front-end thread");
        Service {
            server,
            front_end,
            addr,
            loop_thread,
        }
    }

    /// Stop the loop, join it, shut the server down.
    pub fn stop(self) -> (ServerStats, FrontEndStats) {
        surface::stop_front_end(&self.front_end);
        self.loop_thread.join().expect("front-end thread panicked");
        let fe_stats = surface::front_end_stats(&self.front_end);
        (surface::shutdown(self.server), fe_stats)
    }
}

pub enum Entry {
    Session(Box<Decoder>),
    Served(Service),
}

/// Everything set-up builds and the timed part runs against.
pub struct Rig {
    pub kind: Kind,
    pub corpus: Vec<Image>,
    pub entry: Entry,
    /// `hetero_auto` only: the model `profile::train` fitted at set-up.
    pub model: Option<PerformanceModel>,
    pub train_s: f64,
}

/// What one op returned to its caller.
pub struct OpResult {
    pub latency_s: f64,
    pub ok: bool,
}

/// One closed-loop caller.
pub enum Caller<'a> {
    Direct {
        dec: &'a Decoder,
        mode: Mode,
    },
    Tcp {
        stream: TcpStream,
        /// Reassembled row tiles of the current streamed reply.
        tiles: Vec<u8>,
        /// Arrival time of each tile, seconds after the request write.
        tile_at_s: Vec<f64>,
    },
}

impl Caller<'_> {
    pub fn connect(addr: SocketAddr) -> Caller<'static> {
        let stream = TcpStream::connect(addr).expect("connect to front end");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Caller::Tcp {
            stream,
            tiles: Vec::new(),
            tile_at_s: Vec::new(),
        }
    }

    /// One op: decode `img` (as `framing` on a connection), time it as the
    /// caller sees it, then compare every pixel with the reference.
    pub fn op(
        &mut self,
        img: &Image,
        framing: Option<Framing>,
        trace: Option<(&mut Tracer, u64)>,
    ) -> OpResult {
        match self {
            Caller::Direct { dec, mode } => {
                let t0 = Instant::now();
                let span = trace.map(|(t, op)| {
                    let id = t.begin(op, "core.decode", None);
                    (t, id)
                });
                let out = surface::decode(dec, &img.jpeg, *mode);
                let latency_s = t0.elapsed().as_secs_f64();
                if let Some((t, id)) = span {
                    t.end(id);
                    t.count(id, "pixels", (img.width * img.height) as u64);
                }
                let ok = out.is_ok_and(|o| !o.truncated && o.image.data == img.rgb);
                OpResult { latency_s, ok }
            }
            Caller::Tcp {
                stream,
                tiles,
                tile_at_s,
            } => {
                let framing = framing.expect("served ops name their framing");
                tiles.clear();
                tile_at_s.clear();
                let t0 = Instant::now();
                let mut span = trace.map(|(t, op)| {
                    let root = t.begin(op, "serve.request", None);
                    let w = t.begin(op, "serve.protocol.write_request", Some(root));
                    (t, op, root, w)
                });
                let wrote = surface::write_request(stream, &img.jpeg, framing);
                if let Some((t, op, root, w)) = span.as_mut() {
                    t.end(*w);
                    *w = t.begin(*op, "serve.protocol.read_response", Some(*root));
                }
                let reply = wrote.and_then(|()| {
                    surface::read_response(stream, &mut |chunk: &[u8]| {
                        tile_at_s.push(t0.elapsed().as_secs_f64());
                        tiles.extend_from_slice(chunk);
                    })
                });
                let latency_s = t0.elapsed().as_secs_f64();
                if let Some((t, _, root, r)) = span {
                    t.end(r);
                    t.end(root);
                    t.count(root, "tiles", tile_at_s.len() as u64);
                }
                let ok = match reply {
                    Ok(ServerReply::Ok(frame)) => {
                        let streamed = framing == Framing::V2Streaming;
                        let pixels = if streamed { &*tiles } else { &frame.rgb };
                        (frame.width as usize, frame.height as usize) == (img.width, img.height)
                            && streamed == frame.rgb.is_empty()
                            && pixels == &img.rgb
                    }
                    _ => false,
                };
                OpResult { latency_s, ok }
            }
        }
    }

    /// Orderly goodbye, so the front end sees a clean close.
    pub fn close(self) {
        if let Caller::Tcp { mut stream, .. } = self {
            let _ = stream.write_all(&0u32.to_be_bytes());
        }
    }
}

/// When a run ends. Either way it holds whole passes only.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Passes(usize),
    /// The first pass boundary at or after this many seconds.
    Seconds(f64),
}

impl Until {
    fn wants_more(self, passes_done: usize, started: Instant) -> bool {
        match self {
            Until::Passes(n) => passes_done < n,
            Until::Seconds(s) => passes_done == 0 || started.elapsed().as_secs_f64() < s,
        }
    }
}

/// Op time a throughput window holds at least, in seconds. A window is a
/// run of whole passes of one caller, so every window times the same mix
/// of work; its throughput is a mean over about a second (which smooths
/// the host's fast and slow spells of tens of milliseconds) and the
/// reported figure is the median over windows (which drops a spell that
/// lasts seconds).
pub const WINDOW_S: f64 = 1.0;

/// The timed (or traced) part of a run, as the callers saw it.
#[derive(Default)]
pub struct Timed {
    /// Latencies by slot. A slot is one op of a pass — an image, sent with
    /// one framing — so all samples of a slot time the same work, pooled
    /// over callers and passes.
    pub slots: Vec<Vec<f64>>,
    /// Per caller, the throughput of each of its windows: verified Mpx
    /// over the sum of the window's op latencies. Pixel verification runs
    /// between ops, off this clock.
    pub windows: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Pool a later run of the same rig shape in, slot by slot and caller
    /// by caller.
    pub fn absorb(&mut self, other: Timed) {
        fn pool(mine: &mut Vec<Vec<f64>>, theirs: Vec<Vec<f64>>) {
            if mine.is_empty() {
                *mine = theirs;
            } else {
                for (m, t) in mine.iter_mut().zip(theirs) {
                    m.extend(t);
                }
            }
        }
        pool(&mut self.slots, other.slots);
        pool(&mut self.windows, other.windows);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Every latency sample, for whole-run percentiles.
    pub fn pooled(&self) -> Vec<f64> {
        self.slots.iter().flatten().copied().collect()
    }

    /// Verified megapixels per second of caller-observed op time: each
    /// caller's median window, summed over the (concurrent) callers.
    pub fn throughput_mpx_s(&self) -> f64 {
        self.windows.iter().map(|w| median(w)).sum()
    }
}

impl Rig {
    /// Corpus synthesis, reference decodes, model training, session or
    /// server start and warm-up — everything before the first timed op.
    pub fn set_up(kind: Kind, seed: u64, warm_s: f64) -> Rig {
        let mut corpus = corpus::build(kind, seed);
        let reference = surface::session(None, 1);
        for img in &mut corpus {
            img.rgb = surface::decode(&reference, &img.jpeg, Mode::Sequential)
                .expect("reference decode")
                .image
                .data;
        }
        let (model, train_s) = if kind == Kind::HeteroAuto {
            let t0 = Instant::now();
            let model = surface::train_model(&surface::platform(), &surface::training_jpegs());
            (Some(model), t0.elapsed().as_secs_f64())
        } else {
            (None, 0.0)
        };
        let entry = if kind.served() {
            Entry::Served(Service::start(kind.mode()))
        } else {
            Entry::Session(Box::new(surface::session(model.as_ref(), 2)))
        };
        let rig = Rig {
            kind,
            corpus,
            entry,
            model,
            train_s,
        };
        let t0 = Instant::now();
        loop {
            let warm = rig.run(Until::Passes(1), None);
            assert_eq!(warm.failed, 0, "warm-up op failed verification");
            if t0.elapsed().as_secs_f64() >= warm_s {
                break;
            }
        }
        rig
    }

    pub fn callers(&self) -> usize {
        match self.entry {
            Entry::Session(_) => 1,
            Entry::Served(_) => 2,
        }
    }

    /// Every caller runs whole passes over the corpus, closed loop, until
    /// `until`. With `trace`, every op is also recorded as spans.
    pub fn run(&self, until: Until, mut trace: Option<&mut Tracer>) -> Timed {
        let epoch = trace.as_ref().map(|t| t.epoch());
        let per_caller: Vec<(Timed, Option<Tracer>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.callers())
                .map(|c| s.spawn(move || self.drive(c, until, epoch.map(Tracer::new))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        let mut out = Timed::default();
        for (mut one, tracer) in per_caller {
            out.windows.append(&mut one.windows);
            out.absorb(one);
            if let (Some(all), Some(t)) = (trace.as_deref_mut(), tracer) {
                all.absorb(t);
            }
        }
        out
    }

    /// Caller `c`'s closed loop: connect if served, then pass after pass.
    fn drive(&self, c: usize, until: Until, mut tracer: Option<Tracer>) -> (Timed, Option<Tracer>) {
        let mut caller = match &self.entry {
            Entry::Session(dec) => Caller::Direct {
                dec,
                mode: self.kind.mode(),
            },
            Entry::Served(svc) => Caller::connect(svc.addr),
        };
        let framings: Vec<Option<Framing>> = match self.kind.framings() {
            [] => vec![None],
            f => f.iter().copied().map(Some).collect(),
        };
        let mut out = Timed {
            slots: vec![Vec::new(); self.corpus.len() * framings.len()],
            ..Timed::default()
        };
        let pass_mpx = framings.len() as f64 * self.corpus.iter().map(Image::mpx).sum::<f64>();
        // Closed and open windows as (verified Mpx, seconds of op time).
        let mut windows: Vec<(f64, f64)> = Vec::new();
        let mut open = (0.0, 0.0);
        let mut op_id = (c as u64) << 32;
        let started = Instant::now();
        let mut passes = 0;
        while until.wants_more(passes, started) {
            passes += 1;
            // Caller c starts its pass at image c: two clients walking the
            // same list in lockstep would send every shape to one shard.
            for i in (0..self.corpus.len()).map(|i| (i + c) % self.corpus.len()) {
                for (f, &framing) in framings.iter().enumerate() {
                    op_id += 1;
                    let trace = tracer.as_mut().map(|t| (t, op_id));
                    let r = caller.op(&self.corpus[i], framing, trace);
                    out.slots[i * framings.len() + f].push(r.latency_s);
                    open.1 += r.latency_s;
                    out.attempted += 1;
                    out.failed += u64::from(!r.ok);
                }
            }
            open.0 += pass_mpx;
            if open.1 >= WINDOW_S {
                windows.push(std::mem::take(&mut open));
            }
        }
        // The run's short tail joins its last window.
        match windows.last_mut() {
            Some(last) => *last = (last.0 + open.0, last.1 + open.1),
            None => windows.push(open),
        }
        out.windows = vec![windows.iter().map(|(mpx, s)| mpx / s).collect()];
        caller.close();
        (out, tracer)
    }

    /// Stop whatever set-up started; for a served rig, the final counters.
    pub fn tear_down(self) -> Option<(ServerStats, FrontEndStats)> {
        match self.entry {
            Entry::Session(_) => None,
            Entry::Served(svc) => Some(svc.stop()),
        }
    }
}

/// The three virtual-clock end-to-end figures of one pass of the corpus
/// through the workload's own entry path, plus that pass's op tally.
pub struct VirtualPass {
    pub virt_ms_per_mpx: f64,
    pub virt_speedup_vs_simd: f64,
    pub model_err_pct: f64,
    pub attempted: u64,
    pub failed: u64,
}

pub fn virtual_pass(rig: &Rig) -> VirtualPass {
    use crate::measure::Quantity;
    // SIMD yardstick and `predict()` on a direct session with the
    // workload's model (the serve workloads run on the analytic seed).
    let side = surface::session(rig.model.as_ref(), 2);
    let (mut own_s, mut simd_s, mut mpx, mut err_sum) = (0.0, 0.0, 0.0, 0.0);
    let mut failed = 0u64;
    for img in &rig.corpus {
        let outcome = match &rig.entry {
            Entry::Session(dec) => surface::decode(dec, &img.jpeg, rig.kind.mode()).ok(),
            Entry::Served(svc) => surface::decode_in_process(&svc.server.handle(), &img.jpeg)
                .ok()
                .map(|s| s.outcome),
        };
        let Some(out) = outcome.filter(|o| !o.truncated && o.image.data == img.rgb) else {
            failed += 1;
            continue;
        };
        own_s += out.times.total;
        mpx += img.mpx();
        simd_s += surface::decode(&side, &img.jpeg, Mode::Simd)
            .expect("SIMD yardstick decode")
            .times
            .total;
        // `predict` reads baseline headers only; a progressive image is
        // priced from the baseline twin of the same pixels.
        let predicted = surface::predict(&side, img.baseline())
            .expect("predict")
            .predictions
            .iter()
            .find(|p| p.mode == out.mode)
            .expect("a prediction for the mode that ran")
            .seconds;
        err_sum += (predicted - out.times.total).abs() / out.times.total;
    }
    let measured = (rig.corpus.len() as u64 - failed).max(1) as f64;
    VirtualPass {
        virt_ms_per_mpx: own_s * 1e3 / mpx,
        virt_speedup_vs_simd: Quantity::virt(simd_s)
            .ratio(Quantity::virt(own_s))
            .expect("both virtual"),
        model_err_pct: 100.0 * err_sum / measured,
        attempted: rig.corpus.len() as u64,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_each_callers_median_window_summed() {
        let mut timed = Timed {
            slots: vec![vec![1.0], vec![2.0]],
            windows: vec![vec![100.0, 60.0, 110.0], vec![50.0]],
            attempted: 4,
            failed: 0,
        };
        // A later round on the same rig shape pools in caller by caller.
        timed.absorb(Timed {
            slots: vec![vec![3.0], vec![4.0]],
            windows: vec![vec![105.0, 104.0], vec![40.0, 45.0]],
            attempted: 5,
            failed: 1,
        });
        assert_eq!(timed.windows[0], [100.0, 60.0, 110.0, 105.0, 104.0]);
        // One slow window (60) does not move caller 0's median of 104;
        // caller 1's is 45.
        assert_eq!(timed.throughput_mpx_s(), 149.0);
        assert_eq!(timed.pooled(), [1.0, 3.0, 2.0, 4.0]);
        assert_eq!((timed.attempted, timed.failed), (9, 1));
    }
}
