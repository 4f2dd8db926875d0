//! Log2-bucketed latency histograms and the incremental JSON writers
//! behind the export surfaces (`GET /metrics`, `GET /trace`).

/// Number of log2 latency buckets: bucket 0 holds 0 µs, bucket `i`
/// (1-based) holds `[2^(i-1), 2^i)` µs, and the last bucket holds
/// everything from `2^39` µs (~9 minutes) up.
pub const LOG2_BUCKETS: usize = 41;

/// Bucket index of one observation (µs).
pub fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
    }
}

/// Inclusive value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= LOG2_BUCKETS - 1 {
        (1u64 << (LOG2_BUCKETS - 2), u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A log2-bucketed latency histogram with exact min/max/mean and
/// interpolated percentiles. Merging is exact (bucket-wise sums), so
/// per-connection histograms fold into per-class and overall rows
/// without holding every sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; LOG2_BUCKETS],
    total: u64,
    min_us: u64,
    max_us: u64,
    sum_us: u128,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; LOG2_BUCKETS],
            total: 0,
            min_us: u64::MAX,
            max_us: 0,
            sum_us: 0,
        }
    }

    /// Fold in one latency observation (µs).
    pub fn record(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.total += 1;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        self.sum_us += u128::from(us);
    }

    /// Fold another histogram into this one (exact).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
        self.total += other.total;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
        self.sum_us += other.sum_us;
    }

    /// Observations folded in so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-bucket counts (see [`bucket_bounds`] for the value ranges).
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.buckets
    }

    /// Exact sum of every observation (µs).
    pub fn sum_us(&self) -> u128 {
        self.sum_us
    }

    /// Smallest observation, `None` when empty.
    pub fn min_us(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min_us)
    }

    /// Largest observation, `None` when empty.
    pub fn max_us(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max_us)
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean_us(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum_us as f64 / self.total as f64)
    }

    /// Nearest-rank percentile in per-mille (p50 → 500, p99 → 990,
    /// p99.9 → 999), linearly interpolated inside the hit bucket and
    /// clamped to the observed [min, max]. `None` when empty.
    pub fn percentile_per_mille(&self, pm: u32) -> Option<u64> {
        percentile_in_buckets(&self.buckets, self.total, self.min_us, self.max_us, pm)
    }
}

/// The one rank-in-buckets percentile: over log2 `buckets` summing to
/// `total` observations inside `[min_us, max_us]`, find the bucket
/// holding rank `ceil(pm/1000 · total)`, interpolate linearly within it
/// by rank position, and clamp to the exact bounds. `None` when empty.
/// [`LogHistogram::percentile_per_mille`] answers from its cumulative
/// counts through this; `bnn-net`'s monitor answers from its rolling
/// window's.
pub fn percentile_in_buckets(
    buckets: &[u64; LOG2_BUCKETS],
    total: u64,
    min_us: u64,
    max_us: u64,
    pm: u32,
) -> Option<u64> {
    if total == 0 {
        return None;
    }
    let pm = u64::from(pm.min(1000));
    // ceil(pm/1000 * total), clamped to [1, total], 1-indexed.
    let rank = (pm * total).div_ceil(1000).clamp(1, total);
    let mut cum = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if cum + count >= rank {
            let (lo, hi) = bucket_bounds(i);
            let within = (rank - cum - 1) as f64 / count as f64;
            let span = (hi - lo) as f64;
            let value = lo.saturating_add((span * within) as u64);
            return Some(value.clamp(min_us, max_us));
        }
        cum += count;
    }
    // Unreachable while counts sum to `total`; fall back to max.
    Some(max_us)
}

/// Append a JSON-escaped string literal (with quotes) to `out`.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental JSON object writer: stable key order (fields
/// appear in call order), floats with three decimals, non-finite
/// floats rendered as `0.000`, absent optionals as `null`.
#[derive(Debug, Clone)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> JsonObj {
        JsonObj::new()
    }
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Add an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut JsonObj {
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a float field, three decimals; non-finite renders `0.000`.
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut JsonObj {
        self.key(key);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.3}"));
        } else {
            self.buf.push_str("0.000");
        }
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut JsonObj {
        self.key(key);
        push_json_str(&mut self.buf, v);
        self
    }

    /// Add a boolean field.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut JsonObj {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add an optional integer field (`null` when absent).
    pub fn field_opt_u64(&mut self, key: &str, v: Option<u64>) -> &mut JsonObj {
        self.key(key);
        match v {
            Some(v) => self.buf.push_str(&v.to_string()),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Add a pre-rendered JSON value (nested object or array).
    pub fn field_raw(&mut self, key: &str, raw: &str) -> &mut JsonObj {
        self.key(key);
        self.buf.push_str(raw);
        self
    }

    /// Close the object and return the rendered document.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Incremental JSON array writer, companion to [`JsonObj`].
#[derive(Debug, Clone)]
pub struct JsonArr {
    buf: String,
    first: bool,
}

impl Default for JsonArr {
    fn default() -> JsonArr {
        JsonArr::new()
    }
}

impl JsonArr {
    /// Start an empty array.
    pub fn new() -> JsonArr {
        JsonArr {
            buf: String::from("["),
            first: true,
        }
    }

    /// Append a pre-rendered JSON value.
    pub fn push_raw(&mut self, raw: &str) -> &mut JsonArr {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(raw);
        self
    }

    /// Close the array and return the rendered text.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), LOG2_BUCKETS - 1);

        let mut hist = LogHistogram::new();
        assert_eq!(hist.percentile_per_mille(500), None);
        for us in 1..=1000u64 {
            hist.record(us);
        }
        assert_eq!(hist.total(), 1000);
        assert_eq!(hist.min_us(), Some(1));
        assert_eq!(hist.max_us(), Some(1000));
        let p50 = hist.percentile_per_mille(500).unwrap();
        let p99 = hist.percentile_per_mille(990).unwrap();
        let p999 = hist.percentile_per_mille(999).unwrap();
        // Log2 buckets: interpolated answers land within the hit
        // bucket, so bound them rather than demand exact ranks.
        assert!((256..=512).contains(&p50), "p50 {p50}");
        assert!((512..=1000).contains(&p99), "p99 {p99}");
        assert!(p99 <= p999 && p999 <= 1000, "p999 {p999}");
        assert!((hist.mean_us().unwrap() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut folded = LogHistogram::new();
        for us in [3u64, 17, 900, 40_000] {
            a.record(us);
            folded.record(us);
        }
        for us in [0u64, 5, 123_456] {
            b.record(us);
            folded.record(us);
        }
        a.merge(&b);
        assert_eq!(a, folded);
    }

    #[test]
    fn single_value_histogram_pins_every_percentile() {
        let mut hist = LogHistogram::new();
        for _ in 0..64 {
            hist.record(777);
        }
        for pm in [1, 500, 990, 999, 1000] {
            assert_eq!(hist.percentile_per_mille(pm), Some(777));
        }
    }

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        let mut next = 0u64;
        for i in 0..LOG2_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where {} ended", i.max(1) - 1);
            assert!(hi >= lo);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            if hi == u64::MAX {
                assert_eq!(i, LOG2_BUCKETS - 1);
                return;
            }
            next = hi + 1;
        }
    }

    #[test]
    fn json_writers_render_valid_documents() {
        let mut inner = JsonObj::new();
        inner.field_u64("count", 3).field_opt_u64("p50_us", None);
        let inner = inner.finish();
        let mut arr = JsonArr::new();
        arr.push_raw(&inner).push_raw("42");
        let arr = arr.finish();
        let mut obj = JsonObj::new();
        obj.field_str("name", "a \"quoted\"\nkey")
            .field_f64("rate", 1234.5678)
            .field_f64("bad", f64::NAN)
            .field_bool("ok", true)
            .field_raw("rows", &arr);
        let doc = obj.finish();
        assert_eq!(
            doc,
            "{\"name\":\"a \\\"quoted\\\"\\u000akey\",\"rate\":1234.568,\
             \"bad\":0.000,\"ok\":true,\"rows\":[{\"count\":3,\"p50_us\":null},42]}"
        );
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
