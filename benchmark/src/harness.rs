//! Measurement plumbing shared by every workload: the seeded generator,
//! order statistics, fixed-work rounds, the `Timed` matcher wrapper and the
//! in-memory span recorder of the traced run.

use mpps_ops::{Instantiation, MatchError, Matcher, WmeChange};
use mpps_telemetry::{Recorder, TraceRecorder, Track};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Drives every input that has freedom; the program under test only
    /// ever sees the generated inputs.
    pub seed: u64,
    /// Measuring time for the whole run, split among its phases.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Smoke sizes: round work ÷ 20.
    pub quick: bool,
    /// Where spill and trace files go (inside the checkout).
    pub out_dir: std::path::PathBuf,
}

impl Opts {
    /// `full` at normal size, `full / 20` (at least `floor`) under `--quick`.
    pub fn size(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 20).max(floor)
        } else {
            full
        }
    }

    /// Measured rounds of a phase given the share `part` of the run: fixed
    /// work, not fixed time. A round is sized to take about
    /// [`NOMINAL_ROUND_S`] on the 2-CPU build host, so `--seconds` buys a
    /// number of rounds that does not depend on how fast they then run —
    /// which keeps every count, and every state that grows with work done,
    /// the same from run to run.
    pub fn rounds(&self, part: f64) -> usize {
        ((self.seconds * part / NOMINAL_ROUND_S).round() as usize).max(3)
    }
}

/// What one round of any workload is sized to take on the build host.
pub const NOMINAL_ROUND_S: f64 = 0.5;

/// SplitMix64: tiny, seedable, and stable across toolchains, so a seed
/// names the same inputs forever.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below anything measured).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a byte stream: the digest behind every pinned output check.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The quartiles of Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), so the numbers agree with whoever re-checks them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let n = values.len();
    if n < 2 {
        return [values.first().copied().unwrap_or(0.0); 3];
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [1, 2, 3].map(|k| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
    })
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, mid, q3] = quartiles(values);
    if mid == 0.0 {
        return 0.0;
    }
    (q3 - q1) / mid.abs()
}

/// The second-best of the per-round values: the headline of every timed
/// metric. Interference on a shared host only ever slows a round down, in
/// bursts that can cover most of a run, so the rounds' better end repeats
/// from run to run several times more closely than their median does, and a
/// real regression, which slows every round, still moves it. Second-best
/// and not best, so that one fluke round cannot set the figure.
pub fn second_best(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.get(1).or(v.first()).copied().unwrap_or(0.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p50 and p99 of one round's latency samples, in microseconds.
pub fn p50_p99_us(samples_ns: &mut [u64]) -> (f64, f64) {
    samples_ns.sort_unstable();
    (
        percentile(samples_ns, 0.50) as f64 / 1e3,
        percentile(samples_ns, 0.99) as f64 / 1e3,
    )
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Build a workload's inputs repeatedly — until that has taken 0.3 s and
/// at least seven builds, so that a sub-millisecond set-up still reports a
/// steady figure (`--quick`: 0.03 s, three builds). Returns the last build
/// and every build's duration in seconds. Each build is dropped before the
/// next starts, so repeats do not stack up in `peak_rss_mb`.
pub fn timed_setup<T>(opts: &Opts, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let (budget, at_least) = if opts.quick { (0.03, 3) } else { (0.3, 7) };
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= at_least && began.elapsed().as_secs_f64() >= budget;
        if enough || times.len() >= 5_000 {
            return (built, times);
        }
        drop(built);
    }
}

/// Run one discarded warm-up round, then `n` measured rounds of identical
/// work; `round(measured)` does the work. Only a host more than three times
/// slower than the one the rounds were sized on cuts the phase short (never
/// below three rounds), so that a run still ends in bounded time.
pub fn rounds(n: usize, mut round: impl FnMut(bool)) -> usize {
    round(false);
    let began = Instant::now();
    let limit = Duration::from_secs_f64(3.0 * NOMINAL_ROUND_S * n as f64);
    let mut done = 0;
    while done < n && (done < 3 || began.elapsed() < limit) {
        round(true);
        done += 1;
    }
    done
}

/// A [`Matcher`] that times the two calls the interpreter makes into it.
/// This is how the match layer is measured from outside: the interpreter is
/// generic over its matcher, so wrapping costs the program nothing.
pub struct Timed<M> {
    pub inner: M,
    epoch: Instant,
    /// `[start, end)` of the last `process`, ns since the recorder's epoch.
    pub process: (u64, u64),
    /// Same for the last `conflict_set`, with the length it returned.
    pub conflict: Cell<(u64, u64)>,
    pub conflict_len: Cell<usize>,
}

impl<M> Timed<M> {
    pub fn new(inner: M, epoch: Instant) -> Self {
        Timed {
            inner,
            epoch,
            process: (0, 0),
            conflict: Cell::new((0, 0)),
            conflict_len: Cell::new(0),
        }
    }
}

impl<M: Matcher> Matcher for Timed<M> {
    fn process(&mut self, changes: &[WmeChange]) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.inner.process(changes);
        self.process = (start, self.epoch.elapsed().as_nanos() as u64);
    }

    fn try_process(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = self.inner.try_process(changes);
        self.process = (start, self.epoch.elapsed().as_nanos() as u64);
        result
    }

    fn conflict_set(&self) -> Vec<Instantiation> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let set = self.inner.conflict_set();
        self.conflict
            .set((start, self.epoch.elapsed().as_nanos() as u64));
        self.conflict_len.set(set.len());
        set
    }
}

/// One recorded interval of the traced run.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing kept span.
    pub parent: Option<u32>,
}

/// Per-name sums over *every* span, kept or not.
#[derive(Clone, Debug)]
pub struct Layer {
    pub name: &'static str,
    /// Name of the enclosing layer ("" for the root).
    pub parent: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

/// Process id of every track the benchmark writes.
pub const TRACE_PID: u32 = 10;

/// Full spans for the first `KEEP_PER_ROUND` cycles/requests of a round.
pub const KEEP_PER_ROUND: usize = 2_000;

/// The benchmark's span recorder. Spans are taken around each call into a
/// layer from the benchmark's own code and stay in memory until the run
/// ends. Every span adds to its layer's sum; only the first
/// [`KEEP_PER_ROUND`] leaves of a round are also kept whole, so a long round
/// costs memory in proportion to its layers, not its cycles.
pub struct Spans {
    pub epoch: Instant,
    pub kept: Vec<Span>,
    pub layers: Vec<Layer>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            kept: Vec::new(),
            layers: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a kept span starting now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let now = self.now();
        self.kept.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        (self.kept.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        let span = &mut self.kept[id as usize];
        span.end_ns = end;
        let (name, start, parent) = (span.name, span.start_ns, span.parent);
        let parent_name = parent.map_or("", |p| self.kept[p as usize].name);
        self.add(name, parent_name, end - start);
    }

    /// Record a finished span of layer `name` inside layer `parent_name`.
    /// It always adds to the layer's sum; it is also stored whole, under
    /// the kept span `keep_under`, when that is given. Returns the stored
    /// span's id, so that its own children can be kept under it.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent_name: &'static str,
        start: u64,
        end: u64,
        keep_under: Option<u32>,
    ) -> Option<u32> {
        self.add(name, parent_name, end - start);
        keep_under.map(|parent| {
            self.kept.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent: Some(parent),
            });
            (self.kept.len() - 1) as u32
        })
    }

    /// Add `ns` to a layer's sum without keeping a span.
    pub fn add(&mut self, name: &'static str, parent: &'static str, ns: u64) {
        match self.layers.iter_mut().find(|l| l.name == name) {
            Some(layer) => {
                layer.count += 1;
                layer.total_ns += ns;
            }
            None => self.layers.push(Layer {
                name,
                parent,
                count: 1,
                total_ns: ns,
            }),
        }
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.layers
            .iter()
            .find(|l| l.name == name)
            .map_or(0, |l| l.total_ns)
    }

    /// A layer's self time: its spans' duration minus the part their child
    /// spans cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let children: u64 = self
            .layers
            .iter()
            .filter(|l| l.parent == name)
            .map(|l| l.total_ns)
            .sum();
        self.total_ns(name).saturating_sub(children)
    }

    /// Σ self time over all layers ÷ `wall_ns`, the traced phase's
    /// independently measured wall-clock.
    pub fn coverage(&self, wall_ns: u64) -> f64 {
        let covered: u64 = self.layers.iter().map(|l| self.self_ns(l.name)).sum();
        covered as f64 / wall_ns.max(1) as f64
    }

    /// The per-workload layer table: one row per layer with its self time,
    /// and how much of the traced wall-clock the rows account for.
    pub fn table(&self, wall_ns: u64) -> Vec<String> {
        let mut rows = vec![format!(
            "  {:<24} {:>10} {:>12} {:>12} {:>7}",
            "layer", "spans", "total ms", "self ms", "share"
        )];
        for l in &self.layers {
            let self_ns = self.self_ns(l.name);
            rows.push(format!(
                "  {:<24} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
                l.name,
                l.count,
                l.total_ns as f64 / 1e6,
                self_ns as f64 / 1e6,
                100.0 * self_ns as f64 / wall_ns.max(1) as f64
            ));
        }
        rows.push(format!(
            "  self times sum to {:.2}% of the traced wall-clock ({:.3} ms)",
            100.0 * self.coverage(wall_ns),
            wall_ns as f64 / 1e6
        ));
        rows
    }

    /// The kept spans on one `driver` track of a trace recorder. Nesting on
    /// a track is by containment, which is how the Chrome-trace format
    /// expresses a parent.
    pub fn recorder(&self, workload: &str) -> TraceRecorder {
        let track = Track {
            pid: TRACE_PID,
            tid: 0,
        };
        let mut rec = TraceRecorder::new();
        rec.name_process(track.pid, format!("mpps-benchmark {workload}"));
        rec.name_track(track, "driver");
        for s in &self.kept {
            rec.span(track, s.name, s.start_ns, s.end_ns);
        }
        rec
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!(second_best(&v, true), 9.0);
        assert_eq!(second_best(&v, false), 2.0);
        assert_eq!(second_best(&[3.0], true), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new();
        let root = s.open("workload", None);
        let cycle = s.leaf("cycle", "workload", 10, 110, Some(root));
        s.leaf("matcher.process", "cycle", 20, 80, cycle);
        s.leaf("matcher.process", "cycle", 0, 0, None);
        s.close(root);
        assert_eq!(s.kept.len(), 3);
        assert_eq!(s.self_ns("cycle"), 40);
        assert_eq!(s.self_ns("matcher.process"), 60);
        let wall = s.total_ns("workload");
        assert!((s.coverage(wall) - 1.0).abs() < 1e-9);
        assert_eq!(s.kept[1].parent, Some(root));
        assert_eq!(s.kept[2].parent, cycle);
    }

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
