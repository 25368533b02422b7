//! Location cues and localization estimates.

use openflame_geo::{LatLng, Point2};

/// A sensor observation a client can send to a map server for
/// localization (paper §5.2: "images, beacon signals, fiduciary tag scans").
#[derive(Debug, Clone, PartialEq)]
pub enum LocationCue {
    /// A GNSS fix in geographic coordinates with reported accuracy.
    Gnss {
        /// The fix.
        fix: LatLng,
        /// 1-sigma accuracy estimate, meters.
        accuracy_m: f64,
    },
    /// Received signal strengths from nearby radio beacons.
    BeaconRssi {
        /// `(beacon id, RSSI dBm)` pairs.
        readings: Vec<(u64, f64)>,
    },
    /// A scanned fiducial tag.
    FiducialTag {
        /// The tag identifier.
        tag_id: u64,
    },
}

/// A localization estimate returned by a map server, expressed in the
/// *server's own map frame* (paper §3: frames may be unaligned).
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Position in the server's map frame.
    pub pos: Point2,
    /// 1-sigma error estimate, meters.
    pub error_m: f64,
    /// Technology that produced the estimate.
    pub technology: String,
}
