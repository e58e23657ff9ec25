//! Order statistics over the benchmark's own samples, and quantiles
//! recovered from the runtime's log2 latency ledger.

use mely_core::metrics::LatencyHistogram;

/// The `q`-quantile (nearest rank) of `sorted`; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the rule the acceptance check for
/// this benchmark uses, so `compare` and the calibration agree with it.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Quantile `q` of a [`LatencyHistogram`], interpolated inside the
/// log2 bucket that holds it (samples assumed uniform in the bucket).
///
/// The ledger only exposes `count()` and `percentile()` (a bucket's
/// upper bound); the bucket's population is recovered by bisecting on
/// the rank, which `percentile` is monotone in.
pub fn hist_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // `percentile` takes ceil(q * n) as the rank; aim at the middle of
    // the rank's interval so rounding cannot move it.
    let upper_of = |rank: u64| h.percentile((rank as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let upper = upper_of(rank);
    // First and last rank whose sample lies in this bucket.
    let first = bisect(1, rank, |r| upper_of(r) >= upper);
    let last = bisect(rank, n + 1, |r| upper_of(r) > upper) - 1;
    let lower = upper / 2; // bucket [2^(b-1), 2^b - 1]
    let frac = (rank - first) as f64 + 0.5;
    lower as f64 + (upper - lower) as f64 * frac / (last - first + 1) as f64
}

/// Smallest `r` in `lo..hi` with `pred(r)`, or `hi` (pred monotone).
fn bisect(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A latency recorder of fixed size: log-linear buckets, 128 to each
/// power of two, so a quantile is off by at most 0.4 % and the memory
/// does not grow with the number of ops — `peak_rss_mb` must measure the
/// system, not how many samples the harness kept.
#[derive(Debug, Clone)]
pub struct LatHist {
    counts: Vec<u32>,
    n: u64,
    max_ns: u64,
}

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 7;
/// Largest exponent kept apart: 2^40 ns is 18 minutes.
const MAX_EXP: u32 = 40;

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; ((MAX_EXP - SUB_BITS + 2) as usize) << SUB_BITS],
            n: 0,
            max_ns: 0,
        }
    }
}

impl LatHist {
    fn index(ns: u64) -> usize {
        if ns < (1 << SUB_BITS) {
            return ns as usize;
        }
        let exp = (63 - ns.leading_zeros()).min(MAX_EXP);
        let sub = (ns >> (exp - SUB_BITS)).min((2 << SUB_BITS) - 1) & ((1 << SUB_BITS) - 1);
        (((exp - SUB_BITS + 1) as usize) << SUB_BITS) + sub as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (u64, u64) {
        let (row, sub) = ((i >> SUB_BITS) as u32, (i & ((1 << SUB_BITS) - 1)) as u64);
        if row == 0 {
            (sub, 1)
        } else {
            (((1 << SUB_BITS) + sub) << (row - 1), 1 << (row - 1))
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in ns, interpolated inside its bucket; the
    /// exact maximum for `q == 1`; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max_ns as f64;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if before + c as u64 >= rank {
                let (lower, width) = Self::bucket(i);
                let frac = ((rank - before) as f64 - 0.5) / c as f64;
                return (lower as f64 + width as f64 * frac).min(self.max_ns as f64);
            }
            before += c as u64;
        }
        self.max_ns as f64
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}
