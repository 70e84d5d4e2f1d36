//! Where a result came from: commit, machine, toolchain.

use std::process::Command;

use vf2boost_core::json::JsonObj;

/// The facts recorded with every results file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    /// Collects the facts (each falls back to `unknown`).
    pub fn collect() -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            git_sha: first_line_of("git", &["rev-parse", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model,
            rustc: first_line_of("rustc", &["--version"]),
        }
    }

    /// Renders the facts as a JSON object.
    pub fn to_json(&self, indent: usize) -> String {
        let mut o = JsonObj::new();
        o.str("git_sha", &self.git_sha)
            .u64("nproc", self.nproc as u64)
            .str("cpu_model", &self.cpu_model)
            .str("rustc", &self.rustc);
        o.render(indent)
    }
}
