//! The `hetjpeg` binary's argument handling: `decode` and `predict` build
//! their session from the same `--platform`/`--model`/`--threads` values
//! and refuse a bad one the same way.

use hetjpeg_core::platform::Platform;
use hetjpeg_corpus::{generate_jpeg, ImageSpec, Pattern};
use hetjpeg_jpeg::types::Subsampling;
use std::path::PathBuf;
use std::process::Command;

/// A scratch directory holding a small JPEG, a complete model file and one
/// missing a key; removed on drop.
struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("hetjpeg-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let spec = ImageSpec {
            width: 64,
            height: 48,
            pattern: Pattern::PhotoLike { detail: 0.5 },
            seed: 1,
        };
        let jpeg = generate_jpeg(&spec, 85, Subsampling::S422).expect("encode");
        std::fs::write(dir.join("in.jpg"), jpeg).expect("write jpeg");
        let model = Platform::gtx560().untrained_model().save_str();
        std::fs::write(dir.join("model.txt"), &model).expect("write model");
        let partial: String = (model.lines())
            .filter(|l| !l.starts_with("pcpu_density.coefs"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(dir.join("partial.txt"), partial).expect("write model");
        Fixture { dir }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }

    /// `hetjpeg <cmd> in.jpg <args>`'s exit code; `decode` writes into the
    /// fixture.
    fn run(&self, cmd: &str, args: &[&str]) -> i32 {
        let mut command = Command::new(env!("CARGO_BIN_EXE_hetjpeg"));
        command.arg(cmd).arg(self.path("in.jpg")).args(args);
        if cmd == "decode" {
            command.args(["-o", &self.path("out.ppm")]);
        }
        let out = command.output().expect("run hetjpeg");
        out.status.code().expect("an exit code")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn a_bad_thread_count_is_a_usage_error_for_both_commands() {
    let fx = Fixture::new("threads");
    for cmd in ["decode", "predict"] {
        assert_eq!(fx.run(cmd, &["--threads", "2"]), 0, "{cmd}");
        for bad in ["abc", "-1", ""] {
            let code = fx.run(cmd, &["--threads", bad]);
            assert_eq!(code, 2, "{cmd} --threads {bad:?}");
        }
    }
    assert!(fx.dir.join("out.ppm").exists());
}

#[test]
fn an_unknown_platform_is_a_usage_error_for_both_commands() {
    let fx = Fixture::new("platform");
    for cmd in ["decode", "predict"] {
        let run = |platform: &str| fx.run(cmd, &["--platform", platform, "--threads", "2"]);
        assert_eq!(run("gtx680"), 0, "{cmd}");
        assert_eq!(run("gtx999"), 2, "{cmd}");
    }
}

#[test]
fn a_model_file_missing_a_key_is_refused_by_both_commands() {
    let fx = Fixture::new("model");
    let (model, partial) = (fx.path("model.txt"), fx.path("partial.txt"));
    for cmd in ["decode", "predict"] {
        let run = |file: &str| fx.run(cmd, &["--model", file, "--threads", "2"]);
        assert_eq!(run(&model), 0, "{cmd} with the whole file");
        assert_eq!(run(&partial), 1, "{cmd} without pcpu_density.coefs");
    }
}
