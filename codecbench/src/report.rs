//! Metric tables, provenance, and the JSON lines the benchmark prints.

use std::fmt::Write as _;
use std::path::Path;

use tepics_util::pool::POOL_THREADS_ENV;

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("encode_fps", "scenes/s"),
    ("decode_fps", "frames/s"),
    ("frame_p50_ms", "ms"),
    ("frame_tail_ms", "ms"),
    ("ttff_p50_ms", "ms"),
    ("ttff_tail_ms", "ms"),
    ("psnr_db", "dB"),
    ("wire_bpp", "bit/pixel"),
    ("delivered_frac", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sensor.capture_ms", "ms"),
    ("sensor.pulses", "count"),
    ("ca.replay_ms", "ms"),
    ("stream.write_ms", "ms"),
    ("stream.parse_ms", "ms"),
    ("stream.bytes", "bytes"),
    ("stream.records", "count"),
    ("stream.corrupt_events", "count"),
    ("stream.bytes_skipped", "bytes"),
    ("cache.builds", "count"),
    ("cache.hits", "count"),
    ("cache.builds_per_key", "ratio"),
    ("cache.resident_mb", "MiB"),
    ("cs.phi_build_ms", "ms"),
    ("cs.column_view_ms", "ms"),
    ("cs.norm_est_ms", "ms"),
    ("cs.apply_us", "us"),
    ("cs.adjoint_us", "us"),
    ("recovery.solve_ms", "ms"),
    ("recovery.iterations", "count"),
    ("recovery.converged_frac", "ratio"),
    ("imaging.stitch_ms", "ms"),
    ("imaging.fill_ms", "ms"),
    ("imaging.tiles_erased", "count"),
    ("session.push_ms", "ms"),
    ("session.self_ms", "ms"),
    ("session.frames_degraded", "count"),
    ("session.frames_lost", "count"),
    ("pool.map_ms", "ms"),
    ("pool.busy_ms", "ms"),
    ("pool.idle_frac", "ratio"),
    ("pool.spawns", "1/frame"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Scenes pushed through a receiver.
    pub attempted: usize,
    /// Of those, scenes that never came out as a frame passing the gate.
    pub failed: usize,
    /// Correctness violations, one line each.
    pub failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records metric `name`, with its unit from [`END_TO_END`] or
    /// [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let Some(&(_, unit)) = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name) else {
            panic!("metric {name} is in neither metric table");
        };
        self.metrics.push((name, unit, value));
    }

    /// Records a provenance fact; `json` must be one JSON value.
    pub fn fact(&mut self, key: &'static str, json: impl Into<String>) {
        self.facts.push((key, json.into()));
    }

    /// Records a correctness violation.
    pub fn fail(&mut self, failure: impl Into<String>) {
        self.failures.push(failure.into());
    }

    /// Whether every check passed and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.2.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric with its unit.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }

    /// The provenance line: host, build and workload facts.
    #[must_use]
    pub fn provenance_line(&self) -> String {
        let members: Vec<String> = self
            .facts
            .iter()
            .map(|(key, value)| format!("{}: {value}", quote(key)))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", members.join(", "))
    }
}

/// `s` as a JSON string literal.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Records the host and build facts every result carries, so results
/// from hosts of different parallelism cannot be mixed up.
pub fn host_facts(out: &mut Outcome) {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    out.fact("available_parallelism", parallelism.to_string());
    out.fact(
        "pool_threads_env",
        std::env::var(POOL_THREADS_ENV).map_or_else(|_| "null".to_string(), |v| quote(&v)),
    );
    out.fact(
        "rustc",
        rustc_version().map_or_else(|| "null".to_string(), |v| quote(&v)),
    );
    out.fact(
        "git_commit",
        git_commit().map_or_else(|| "null".to_string(), |c| quote(&c)),
    );
}

/// The compiler version, from the `.rustc_info.json` cargo keeps in the
/// target directory this binary was built into.
fn rustc_version() -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let info = std::fs::read_to_string(exe.parent()?.parent()?.join(".rustc_info.json")).ok()?;
    let line = &info[info.find("rustc ")?..];
    Some(line[..line.find("\\n").unwrap_or(line.len())].to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(commit.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)
                .map(|hash| hash.trim().to_string())
        })
}
