//! Radio beacons: path-loss simulation and fingerprint localization.

use crate::cues::{Estimate, LocationCue};
use crate::gnss::normal_sample;
use openflame_geo::Point2;
use rand::Rng;

/// A radio beacon installed in a venue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beacon {
    /// Stable identifier broadcast by the beacon.
    pub id: u64,
    /// Position in the venue's map frame.
    pub pos: Point2,
    /// Transmit power measured at 1 m, dBm.
    pub tx_power_dbm: f64,
}

/// Log-distance path-loss exponent for indoor spaces.
const PATH_LOSS_EXPONENT: f64 = 2.4;

/// Signal below this is undetectable.
const SENSITIVITY_DBM: f64 = -95.0;

/// Expected RSSI at `distance_m` from a beacon (no noise).
pub(crate) fn expected_rssi(beacon: &Beacon, distance_m: f64) -> f64 {
    let d = distance_m.max(0.5);
    beacon.tx_power_dbm - 10.0 * PATH_LOSS_EXPONENT * d.log10()
}

/// A fingerprint database over a venue: expected beacon signatures on a
/// uniform grid, used for k-NN localization of observed signatures.
///
/// This reproduces the standard WiFi/BLE fingerprinting pipeline: survey
/// offline (here: computed from the path-loss model), then match online
/// observations in signal space.
#[derive(Debug, Clone)]
pub struct RadioMap {
    beacons: Vec<Beacon>,
    grid_origin: Point2,
    grid_step: f64,
    cols: usize,
    /// `fingerprints[row * cols + col][beacon_idx]` = expected dBm.
    fingerprints: Vec<Vec<f64>>,
}

impl RadioMap {
    /// Surveys the rectangle `[min, max]` at `step` meter resolution.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`, the rectangle is inverted, or no beacons
    /// are given.
    pub fn survey(beacons: Vec<Beacon>, min: Point2, max: Point2, step: f64) -> Self {
        assert!(step > 0.0 && max.x >= min.x && max.y >= min.y && !beacons.is_empty());
        let cols = ((max.x - min.x) / step).ceil() as usize + 1;
        let rows = ((max.y - min.y) / step).ceil() as usize + 1;
        let mut fingerprints = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let p = Point2::new(min.x + c as f64 * step, min.y + r as f64 * step);
                fingerprints.push(
                    beacons
                        .iter()
                        .map(|b| expected_rssi(b, b.pos.distance(p)))
                        .collect(),
                );
            }
        }
        Self {
            beacons,
            grid_origin: min,
            grid_step: step,
            cols,
            fingerprints,
        }
    }

    /// The beacons in this radio map.
    pub fn beacons(&self) -> &[Beacon] {
        &self.beacons
    }

    /// Simulates the signature a device at `pos` observes, with
    /// `noise_dbm` Gaussian measurement noise; beacons below the
    /// sensitivity floor are absent.
    pub fn observe<R: Rng>(&self, rng: &mut R, pos: Point2, noise_dbm: f64) -> LocationCue {
        let readings = self
            .beacons
            .iter()
            .filter_map(|b| {
                let rssi =
                    expected_rssi(b, b.pos.distance(pos)) + normal_sample(rng, 0.0, noise_dbm);
                if rssi >= SENSITIVITY_DBM {
                    Some((b.id, rssi))
                } else {
                    None
                }
            })
            .collect();
        LocationCue::BeaconRssi { readings }
    }

    /// Localizes an observed signature by inverse-distance-weighted
    /// k-NN in signal space. Returns `None` when no overlapping beacons
    /// are seen.
    pub fn localize(&self, cue: &LocationCue, k: usize) -> Option<Estimate> {
        let LocationCue::BeaconRssi { readings } = cue else {
            return None;
        };
        if readings.is_empty() {
            return None;
        }
        // Map observed ids onto our beacon indices.
        let observed: Vec<(usize, f64)> = readings
            .iter()
            .filter_map(|(id, rssi)| {
                self.beacons
                    .iter()
                    .position(|b| b.id == *id)
                    .map(|i| (i, *rssi))
            })
            .collect();
        if observed.is_empty() {
            return None;
        }
        // Signal-space distance to every fingerprint.
        let mut scored: Vec<(f64, usize)> = self
            .fingerprints
            .iter()
            .enumerate()
            .map(|(idx, fp)| {
                let d2: f64 = observed
                    .iter()
                    .map(|(bi, rssi)| (fp[*bi] - rssi).powi(2))
                    .sum::<f64>()
                    / observed.len() as f64;
                (d2.sqrt(), idx)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let k = k.max(1).min(scored.len());
        let mut wsum = 0.0;
        let mut acc = Point2::ZERO;
        for &(dist, idx) in &scored[..k] {
            let w = 1.0 / (dist + 1e-3);
            let r = idx / self.cols;
            let c = idx % self.cols;
            let p = Point2::new(
                self.grid_origin.x + c as f64 * self.grid_step,
                self.grid_origin.y + r as f64 * self.grid_step,
            );
            acc = acc + p * w;
            wsum += w;
        }
        let pos = acc / wsum;
        // Error estimate: spread of the k best matches around the mean.
        let spread = scored[..k]
            .iter()
            .map(|&(_, idx)| {
                let r = idx / self.cols;
                let c = idx % self.cols;
                Point2::new(
                    self.grid_origin.x + c as f64 * self.grid_step,
                    self.grid_origin.y + r as f64 * self.grid_step,
                )
                .distance(pos)
            })
            .fold(0.0f64, f64::max)
            .max(self.grid_step / 2.0);
        Some(Estimate {
            pos,
            error_m: spread,
            technology: "beacon".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 40×30 m store with beacons in the corners and center.
    fn store_radio_map() -> RadioMap {
        let beacons = vec![
            Beacon {
                id: 1,
                pos: Point2::new(0.0, 0.0),
                tx_power_dbm: -40.0,
            },
            Beacon {
                id: 2,
                pos: Point2::new(40.0, 0.0),
                tx_power_dbm: -40.0,
            },
            Beacon {
                id: 3,
                pos: Point2::new(0.0, 30.0),
                tx_power_dbm: -40.0,
            },
            Beacon {
                id: 4,
                pos: Point2::new(40.0, 30.0),
                tx_power_dbm: -40.0,
            },
            Beacon {
                id: 5,
                pos: Point2::new(20.0, 15.0),
                tx_power_dbm: -40.0,
            },
        ];
        RadioMap::survey(beacons, Point2::ZERO, Point2::new(40.0, 30.0), 2.0)
    }

    #[test]
    fn rssi_decays_with_distance() {
        let b = Beacon {
            id: 1,
            pos: Point2::ZERO,
            tx_power_dbm: -40.0,
        };
        assert!(expected_rssi(&b, 1.0) > expected_rssi(&b, 10.0));
        assert!(expected_rssi(&b, 10.0) > expected_rssi(&b, 50.0));
        // Sub-half-meter clamps (no singularity at zero distance).
        assert_eq!(expected_rssi(&b, 0.0), expected_rssi(&b, 0.4));
    }

    #[test]
    fn noiseless_localization_is_accurate() {
        let rm = store_radio_map();
        let mut rng = StdRng::seed_from_u64(2);
        for &(x, y) in &[(5.0, 5.0), (20.0, 15.0), (35.0, 25.0), (10.0, 22.0)] {
            let truth = Point2::new(x, y);
            let cue = rm.observe(&mut rng, truth, 0.001);
            let est = rm.localize(&cue, 4).unwrap();
            assert!(
                est.pos.distance(truth) < 3.0,
                "({x},{y}) -> {} err {}",
                est.pos,
                est.pos.distance(truth)
            );
        }
    }

    #[test]
    fn noisy_localization_stays_bounded() {
        let rm = store_radio_map();
        let mut rng = StdRng::seed_from_u64(3);
        let truth = Point2::new(12.0, 18.0);
        let mut total = 0.0;
        let n = 50;
        for _ in 0..n {
            let cue = rm.observe(&mut rng, truth, 4.0);
            let est = rm.localize(&cue, 4).unwrap();
            total += est.pos.distance(truth);
        }
        let mean_err = total / n as f64;
        // With 4 dBm noise, fingerprint error should be a few meters.
        assert!(mean_err < 8.0, "mean error {mean_err}");
    }

    #[test]
    fn unknown_beacons_not_localized() {
        let rm = store_radio_map();
        let cue = LocationCue::BeaconRssi {
            readings: vec![(999, -50.0)],
        };
        assert!(rm.localize(&cue, 4).is_none());
    }

    #[test]
    fn wrong_cue_kind_rejected() {
        let rm = store_radio_map();
        assert!(rm
            .localize(&LocationCue::FiducialTag { tag_id: 1 }, 4)
            .is_none());
        let empty = LocationCue::BeaconRssi { readings: vec![] };
        assert!(rm.localize(&empty, 4).is_none());
    }

    #[test]
    fn far_positions_hear_nothing() {
        let rm = store_radio_map();
        let mut rng = StdRng::seed_from_u64(4);
        let cue = rm.observe(&mut rng, Point2::new(5_000.0, 5_000.0), 1.0);
        let LocationCue::BeaconRssi { readings } = &cue else {
            panic!()
        };
        assert!(readings.is_empty(), "beacons must fade below sensitivity");
    }

    #[test]
    fn error_estimate_reflects_grid() {
        let rm = store_radio_map();
        let mut rng = StdRng::seed_from_u64(5);
        let cue = rm.observe(&mut rng, Point2::new(20.0, 15.0), 0.1);
        let est = rm.localize(&cue, 4).unwrap();
        assert!(est.error_m >= 1.0, "at least half the grid step");
        assert_eq!(est.technology, "beacon");
    }

    #[test]
    fn survey_dimensions() {
        let rm = store_radio_map();
        // 21 cols × 16 rows at 2 m over 40×30.
        assert_eq!(rm.fingerprints.len(), 21 * 16);
        assert_eq!(rm.beacons().len(), 5);
    }
}
