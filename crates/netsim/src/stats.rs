//! Traffic counters for the simulated network.

/// Global traffic statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered (both directions of an RPC count separately).
    pub messages: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
    /// Messages dropped by failure injection.
    pub drops: u64,
}

/// Per-endpoint traffic statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Messages received.
    pub rx_msgs: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Messages sent.
    pub tx_msgs: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
}

/// Latency summary of completed calls *to* one endpoint, as observed by
/// the callers on this transport handle.
///
/// The EWMA uses integer arithmetic (α = 1/8) so summaries are `Eq` and
/// deterministic given the same sample sequence — the replica selector
/// built on top must pick identically across backends and runs when fed
/// identical simulated samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointLatency {
    /// Completed calls observed.
    pub count: u64,
    /// Exponentially weighted moving average latency in microseconds
    /// (α = 1/8; the first sample initializes the average).
    pub ewma_us: u64,
}

impl EndpointLatency {
    /// Folds one completed-call latency sample into the summary.
    pub fn observe(&mut self, sample_us: u64) {
        if self.count == 0 {
            self.ewma_us = sample_us;
        } else {
            let delta = sample_us as i64 - self.ewma_us as i64;
            self.ewma_us = (self.ewma_us as i64 + delta / 8) as u64;
        }
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ewma_first_sample_initializes() {
        let mut l = EndpointLatency::default();
        l.observe(800);
        assert_eq!(
            l,
            EndpointLatency {
                count: 1,
                ewma_us: 800
            }
        );
        l.observe(1600);
        // 800 + (1600 - 800)/8 = 900.
        assert_eq!(l.count, 2);
        assert_eq!(l.ewma_us, 900);
        l.observe(100);
        // 900 + (100 - 900)/8 = 800.
        assert_eq!(l.ewma_us, 800);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(
            NetStats::default(),
            NetStats {
                messages: 0,
                bytes: 0,
                drops: 0
            }
        );
    }
}
