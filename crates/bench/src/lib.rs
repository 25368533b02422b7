//! Shared helpers for the OpenFLAME experiment harness binaries.
//!
//! Each `src/bin/e*.rs` binary regenerates one paper-claim experiment
//! and prints its table(s) plus the shape the numbers must have. The
//! helpers here keep the output format consistent. Performance is not
//! measured here: that is `benchmark/` (see `BENCHMARK.json`).

/// Prints an experiment header.
pub fn header(id: &str, claim: &str) {
    println!("==================================================================");
    println!("{id}: {claim}");
    println!("==================================================================");
}

/// Prints a table row of right-aligned columns with a fixed width.
pub fn row(cols: &[String]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Percentile of a sorted-or-unsorted sample (p in [0, 100]).
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * (values.len() - 1) as f64).round() as usize;
    values[rank.min(values.len() - 1)]
}

/// Mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
