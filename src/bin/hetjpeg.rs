//! `hetjpeg` — command-line front end.
//!
//! ```text
//! hetjpeg decode  photo.jpg -o photo.ppm --mode pps --platform gtx560
//! hetjpeg encode  photo.ppm -o photo.jpg --quality 85 --subsampling 422
//! hetjpeg info    photo.jpg
//! hetjpeg predict photo.jpg --platform gtx680
//! ```
//!
//! `decode` runs the requested scheduler mode, writes a binary PPM (P6) and
//! prints the virtual-time stage breakdown for the chosen Table 1 machine.
//! `predict` prints the §5.1 cost-model ranking without decoding — the same
//! estimate `hetjpeg-serve` uses for SLO admission control.

use hetjpeg_core::model::PerformanceModel;
use hetjpeg_core::platform::Platform;
use hetjpeg_core::schedule::Mode;
use hetjpeg_core::{DecodeOptions, Decoder, OutputFormat};
use hetjpeg_jpeg::encoder::{encode_rgb, EncodeParams};
use hetjpeg_jpeg::markers::{self, Parsed, ParsedJpeg};
use hetjpeg_jpeg::progressive::ProgressiveParsed;
use hetjpeg_jpeg::types::FrameInfo;
use hetjpeg_jpeg::types::Subsampling;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hetjpeg decode <in.jpg> [-o out.ppm] [--mode auto|seq|simd|gpu|pipeline|sps|pps|par]\n\
         \u{20}                [--platform gt430|gtx560|gtx680] [--model model.txt]\n\
         \u{20}                [--threads N] [--planar] [--tolerant] [--max-pixels N]\n\
         \u{20} hetjpeg encode <in.ppm> [-o out.jpg] [--quality N] [--subsampling 444|422|420]\n\
         \u{20}                [--restart N]\n\
         \u{20} hetjpeg info <in.jpg>\n\
         \u{20} hetjpeg predict <in.jpg> [--platform gt430|gtx560|gtx680] [--model model.txt]\n\
         \u{20}                [--threads N]"
    );
    ExitCode::from(2)
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, input) = match (args.first(), args.get(1)) {
        (Some(c), Some(i)) if !i.starts_with("--") => (c.clone(), i.clone()),
        _ => return usage(),
    };
    match cmd.as_str() {
        "decode" => cmd_decode(&input, &args),
        "encode" => cmd_encode(&input, &args),
        "info" => cmd_info(&input),
        "predict" => cmd_predict(&input, &args),
        _ => usage(),
    }
}

/// The session `decode` and `predict` run on, from `--platform`, `--model`
/// and `--threads`, or the exit code to leave with: usage for an unknown
/// platform or a thread count that does not parse, failure for a model
/// file that does not load or a configuration the builder refuses.
fn session(args: &[String]) -> Result<Decoder, ExitCode> {
    let platform = match arg_value(args, "--platform").as_deref().unwrap_or("gtx560") {
        "gt430" => Platform::gt430(),
        "gtx560" => Platform::gtx560(),
        "gtx680" => Platform::gtx680(),
        other => {
            eprintln!("unknown platform {other}");
            return Err(usage());
        }
    };
    let model = match arg_value(args, "--model") {
        Some(path) => match std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| PerformanceModel::load_str(&t))
        {
            Some(m) => m,
            None => {
                eprintln!("cannot load model from {path}");
                return Err(ExitCode::FAILURE);
            }
        },
        None => platform.untrained_model(),
    };
    let threads: usize = match arg_value(args, "--threads") {
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("invalid --threads value {v:?}");
                return Err(usage());
            }
        },
        None => 4,
    };
    Decoder::builder()
        .platform(platform)
        .model(model)
        .threads(threads)
        .build()
        .map_err(|e| {
            eprintln!("invalid decoder configuration: {e}");
            ExitCode::FAILURE
        })
}

fn cmd_decode(input: &str, args: &[String]) -> ExitCode {
    let data = match std::fs::read(input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mode = match arg_value(args, "--mode").as_deref().unwrap_or("auto") {
        "auto" => Mode::Auto,
        "seq" | "sequential" => Mode::Sequential,
        "simd" => Mode::Simd,
        "gpu" => Mode::Gpu,
        "pipeline" => Mode::PipelinedGpu,
        "sps" => Mode::Sps,
        "pps" => Mode::Pps,
        "par" | "par-entropy" => Mode::ParallelEntropy,
        other => {
            eprintln!("unknown mode {other}");
            return usage();
        }
    };
    let decoder = match session(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let mut opts = DecodeOptions::with_mode(mode);
    if args.iter().any(|a| a == "--planar") {
        opts = opts.format(OutputFormat::PlanarYcc);
    }
    if args.iter().any(|a| a == "--tolerant") {
        opts = opts.tolerant();
    }
    if let Some(v) = arg_value(args, "--max-pixels") {
        // A typo here must not silently disable the bomb guard.
        match v.parse() {
            Ok(px) => opts = opts.max_pixels(px),
            Err(_) => {
                eprintln!("invalid --max-pixels value {v:?}");
                return usage();
            }
        }
    }

    let out = match decoder.decode(&data, opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("decode failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Diagnostic ranking only after a successful decode, so guarded or
    // malformed inputs never reach the (stream-scanning) predictor.
    if mode == Mode::Auto {
        if let Ok(decision) = decoder.predict(&data) {
            for p in &decision.predictions {
                eprintln!(
                    "  predicted {:<12} {:>9.3} ms",
                    p.mode.name(),
                    p.seconds * 1e3
                );
            }
        }
    }
    let output = arg_value(args, "-o").unwrap_or_else(|| format!("{input}.ppm"));
    if let Some(ycc) = out.planar() {
        // Planar output: three binary PGMs next to the requested path.
        for (plane, tag) in [(&ycc.y, "y"), (&ycc.cb, "cb"), (&ycc.cr, "cr")] {
            let path = format!("{output}.{tag}.pgm");
            if let Err(e) = write_pgm(&path, ycc.width, ycc.height, plane) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Err(e) = write_ppm(&output, out.image.width, out.image.height, &out.image.data) {
        eprintln!("cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{} {}x{} decoded with {} on {} -> {}{}",
        input,
        out.image.width,
        out.image.height,
        out.mode.name(),
        decoder.platform().name,
        output,
        if out.truncated {
            " (truncated stream salvaged)"
        } else {
            ""
        }
    );
    let b = out.times;
    println!(
        "virtual time {:.3} ms  (huffman {:.3}, h2d {:.3}, kernels {:.3}, d2h {:.3}, cpu {:.3}, dispatch {:.3})",
        b.total * 1e3,
        b.huffman * 1e3,
        b.h2d * 1e3,
        b.kernels * 1e3,
        b.d2h * 1e3,
        b.cpu_parallel * 1e3,
        b.dispatch * 1e3
    );
    if let Some(p) = out.partition {
        println!(
            "partition: {} MCU rows on GPU, {} on CPU ({} Newton iterations)",
            p.gpu_mcu_rows, p.cpu_mcu_rows, p.iterations
        );
    }
    ExitCode::SUCCESS
}

fn cmd_predict(input: &str, args: &[String]) -> ExitCode {
    let data = match std::fs::read(input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let decoder = match session(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    // Progressive (SOF2) streams have no per-mode cost model; the server
    // prices them from measured shard throughput instead.
    let decision = match decoder.predict(&data) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot predict {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{input} on {}: would choose {}",
        decoder.platform().name,
        decision.mode.name()
    );
    for p in &decision.predictions {
        println!(
            "  {:<12} {:>9.3} ms{}",
            p.mode.name(),
            p.seconds * 1e3,
            if p.mode == decision.mode {
                "  <- chosen"
            } else {
                ""
            }
        );
    }
    ExitCode::SUCCESS
}

fn cmd_encode(input: &str, args: &[String]) -> ExitCode {
    let (w, h, rgb) = match read_ppm(input) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot read PPM {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let quality: u8 = arg_value(args, "--quality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(85);
    let subsampling = match arg_value(args, "--subsampling").as_deref().unwrap_or("422") {
        "444" => Subsampling::S444,
        "422" => Subsampling::S422,
        "420" => Subsampling::S420,
        other => {
            eprintln!("unknown subsampling {other}");
            return usage();
        }
    };
    let restart: usize = arg_value(args, "--restart")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let jpeg = match encode_rgb(
        &rgb,
        w as u32,
        h as u32,
        &EncodeParams {
            quality,
            subsampling,
            restart_interval: restart,
        },
    ) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("encode failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let output = arg_value(args, "-o").unwrap_or_else(|| format!("{input}.jpg"));
    if let Err(e) = std::fs::write(&output, &jpeg) {
        eprintln!("cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{input} {w}x{h} -> {output} ({} bytes, q{quality}, {}, {:.3} B/px)",
        jpeg.len(),
        subsampling.notation(),
        jpeg.len() as f64 / (w * h) as f64
    );
    ExitCode::SUCCESS
}

fn cmd_info(input: &str) -> ExitCode {
    let data = match std::fs::read(input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match markers::parse(&data) {
        Ok(Parsed::Baseline(parsed)) => info_baseline(input, &parsed),
        Ok(Parsed::Progressive(parsed)) => info_progressive(input, &parsed),
        Err(e) => {
            eprintln!("not a decodable JPEG: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The frame, file size and entropy density (paper Eq. 3) lines both
/// frame kinds print.
fn print_frame(input: &str, kind: &str, frame: &FrameInfo, file_size: usize) {
    println!("{input}:{kind}");
    println!(
        "  {}x{} {}",
        frame.width,
        frame.height,
        frame.subsampling.notation()
    );
    println!("  file size      {file_size} bytes");
    println!(
        "  entropy density {:.4} bytes/pixel (Eq. 3)",
        file_size as f64 / (frame.width as f64 * frame.height as f64)
    );
}

fn info_baseline(input: &str, parsed: &ParsedJpeg<'_>) {
    print_frame(input, "", &parsed.frame, parsed.file_size);
    println!("  restart interval {}", parsed.frame.restart_interval);
    if let Ok(geom) = hetjpeg_jpeg::geometry::Geometry::new(
        parsed.frame.width,
        parsed.frame.height,
        parsed.frame.subsampling,
    ) {
        println!(
            "  {} x {} MCUs ({} blocks)",
            geom.mcus_x, geom.mcus_y, geom.total_blocks
        );
        let segs = hetjpeg_jpeg::entropy::split_restart_segments(parsed, &geom);
        println!(
            "  {} independently decodable entropy segment(s)",
            segs.len()
        );
    }
}

fn info_progressive(input: &str, parsed: &ProgressiveParsed<'_>) {
    print_frame(
        input,
        " progressive (SOF2)",
        &parsed.frame,
        parsed.file_size,
    );
    println!(
        "  {} scan(s), {} refinement pass(es){}",
        parsed.scans.len(),
        parsed.refinement_scans(),
        if parsed.complete {
            ""
        } else {
            " (truncated: no EOI)"
        }
    );
    for (i, scan) in parsed.scans.iter().enumerate() {
        let h = &scan.header;
        println!(
            "    scan {:2}: {} comp(s), Ss={} Se={} Ah={} Al={}, {} bytes",
            i + 1,
            h.comps.len(),
            h.ss,
            h.se,
            h.ah,
            h.al,
            scan.data.len()
        );
    }
    if let Some(d) = &parsed.damage {
        println!("  structural damage after last recovered scan: {d}");
    }
}

fn write_pgm(path: &str, w: usize, h: usize, plane: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(plane.len() + 32);
    out.extend_from_slice(format!("P5\n{w} {h}\n255\n").as_bytes());
    out.extend_from_slice(plane);
    std::fs::write(path, out)
}

fn write_ppm(path: &str, w: usize, h: usize, rgb: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(rgb.len() + 32);
    out.extend_from_slice(format!("P6\n{w} {h}\n255\n").as_bytes());
    out.extend_from_slice(rgb);
    std::fs::write(path, out)
}

fn read_ppm(path: &str) -> Result<(usize, usize, Vec<u8>), String> {
    let data = std::fs::read(path).map_err(|e| e.to_string())?;
    // Parse the P6 header: magic, width, height, maxval, then raw bytes.
    let mut fields = Vec::new();
    let mut pos = 0usize;
    while fields.len() < 4 && pos < data.len() {
        // Skip whitespace and comments.
        while pos < data.len() && (data[pos].is_ascii_whitespace()) {
            pos += 1;
        }
        if pos < data.len() && data[pos] == b'#' {
            while pos < data.len() && data[pos] != b'\n' {
                pos += 1;
            }
            continue;
        }
        let start = pos;
        while pos < data.len() && !data[pos].is_ascii_whitespace() {
            pos += 1;
        }
        fields.push(String::from_utf8_lossy(&data[start..pos]).to_string());
    }
    if fields.len() < 4 || fields[0] != "P6" {
        return Err("expected binary PPM (P6)".into());
    }
    let w: usize = fields[1].parse().map_err(|_| "bad width")?;
    let h: usize = fields[2].parse().map_err(|_| "bad height")?;
    if fields[3] != "255" {
        return Err("only maxval 255 supported".into());
    }
    pos += 1; // single whitespace after maxval
    let body = data
        .get(pos..pos + w * h * 3)
        .ok_or("truncated pixel data")?;
    Ok((w, h, body.to_vec()))
}
