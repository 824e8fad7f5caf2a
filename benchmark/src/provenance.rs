//! Where a result came from: commit, compiler, hardware threads and build
//! flags, stamped on every run.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

#[derive(Debug, Clone)]
pub struct Provenance {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    /// `RUSTFLAGS` if set, else the `rustflags` line of the repository's
    /// `.cargo/config.toml`.
    pub rustflags: String,
    /// Vector extensions this binary was compiled to use (what
    /// `target-cpu=native` resolved to on the build host).
    pub target_features: String,
}

fn first_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .flatten()
}

/// Hardware threads this process may use, read once.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

impl Provenance {
    pub fn collect() -> Self {
        let package = Path::new(env!("CARGO_MANIFEST_DIR"));
        let config = package.join("../.cargo/config.toml");
        let rustflags = std::env::var("RUSTFLAGS").ok().or_else(|| {
            std::fs::read_to_string(config).ok().and_then(|text| {
                text.lines()
                    .find(|line| line.trim_start().starts_with("rustflags"))
                    .map(|line| line.trim().to_string())
            })
        });
        let features = [
            ("sse4.2", cfg!(target_feature = "sse4.2")),
            ("avx", cfg!(target_feature = "avx")),
            ("avx2", cfg!(target_feature = "avx2")),
            ("fma", cfg!(target_feature = "fma")),
            ("avx512f", cfg!(target_feature = "avx512f")),
            ("neon", cfg!(target_feature = "neon")),
        ];
        Self {
            // An exported checkout has no repository to ask.
            commit: first_line("git", &["rev-parse", "HEAD"], package)
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: first_line("rustc", &["-V"], package).unwrap_or_else(|| "unknown".to_string()),
            nproc: nproc(),
            rustflags: rustflags.unwrap_or_else(|| "none".to_string()),
            target_features: features
                .iter()
                .filter(|(_, on)| *on)
                .map(|(name, _)| *name)
                .collect::<Vec<_>>()
                .join(","),
        }
    }

    /// One `#` line for the run's standard output.
    pub fn line(&self) -> String {
        format!(
            "# commit {} | {} | nproc {} | {} | target features {}",
            self.commit, self.rustc, self.nproc, self.rustflags, self.target_features
        )
    }
}

/// Whether `metric` needs more hardware threads than this host has; such a
/// reading is printed as `not_measured`, never as a number (the result
/// line, which must carry a number, carries 0).
pub fn not_measured(metric: &str) -> bool {
    metric == "analysis.thread_scaling_2_over_1" && nproc() < 2
}
