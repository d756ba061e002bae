//! Geo-distributed star topologies (end-systems around one server).

use crate::{LatencyModel, Link};
use serde::{Deserialize, Serialize};

/// A point on the globe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, validating ranges.
    ///
    /// # Panics
    ///
    /// Panics if latitude or longitude is out of range.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!(
            (-90.0..=90.0).contains(&lat),
            "latitude {} out of range",
            lat
        );
        assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude {} out of range",
            lon
        );
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        const R: f64 = 6371.0;
        let (lat1, lat2) = (self.lat.to_radians(), other.lat.to_radians());
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * R * a.sqrt().atan2((1.0 - a).sqrt())
    }

    /// One-way propagation latency to `other` in milliseconds, assuming
    /// light in fibre (≈ 200 000 km/s) over a route 1.5× the great-circle
    /// distance — the standard WAN rule of thumb.
    pub fn propagation_ms(&self, other: &GeoPoint) -> f64 {
        const FIBRE_KM_PER_MS: f64 = 200.0;
        const ROUTE_STRETCH: f64 = 1.5;
        self.distance_km(other) * ROUTE_STRETCH / FIBRE_KM_PER_MS
    }
}

/// Identifier of an end-system in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EndSystemId(pub usize);

impl std::fmt::Display for EndSystemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "es{}", self.0)
    }
}

/// A star topology: `n` end-systems, one centralized server, one
/// (symmetric) link each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StarTopology {
    links: Vec<Link>,
    labels: Vec<String>,
}

impl StarTopology {
    /// Creates a topology from per-end-system uplinks.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    pub fn new(links: Vec<Link>) -> Self {
        assert!(!links.is_empty(), "topology needs at least one end-system");
        let labels = (0..links.len()).map(|i| format!("es{}", i)).collect();
        StarTopology { links, labels }
    }

    /// A homogeneous topology: every end-system gets the same link.
    pub fn uniform(n: usize, link: Link) -> Self {
        StarTopology::new(vec![link; n.max(1)])
    }

    /// Builds a topology from geographic sites: propagation latency is
    /// derived from great-circle distance to the server; all links share
    /// `mbps` bandwidth. Labels are taken from the site names.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty or `mbps <= 0`.
    pub fn from_geo(server: GeoPoint, sites: &[(String, GeoPoint)], mbps: f64) -> Self {
        assert!(!sites.is_empty(), "topology needs at least one end-system");
        assert!(mbps > 0.0, "bandwidth must be positive");
        let links = sites
            .iter()
            .map(|(_, p)| Link::wan(server.propagation_ms(p), mbps))
            .collect();
        let labels = sites.iter().map(|(name, _)| name.clone()).collect();
        StarTopology { links, labels }
    }

    /// Number of end-systems.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the topology has no end-systems (never true by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The uplink/downlink of end-system `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: EndSystemId) -> &Link {
        &self.links[id.0]
    }

    /// Human-readable label of end-system `id`.
    pub fn label(&self, id: EndSystemId) -> &str {
        &self.labels[id.0]
    }

    /// Iterates end-system ids.
    pub fn ids(&self) -> impl Iterator<Item = EndSystemId> {
        (0..self.links.len()).map(EndSystemId)
    }

    /// A heterogeneous benchmark topology: latencies spread linearly from
    /// `lo_ms` to `hi_ms` across end-systems with ±10 % jitter.
    pub fn latency_gradient(n: usize, lo_ms: f64, hi_ms: f64, mbps: f64) -> Self {
        assert!(n > 0, "topology needs at least one end-system");
        assert!(0.0 <= lo_ms && lo_ms <= hi_ms, "invalid latency range");
        let links = (0..n)
            .map(|i| {
                let frac = if n == 1 {
                    0.0
                } else {
                    i as f64 / (n - 1) as f64
                };
                let mean = lo_ms + frac * (hi_ms - lo_ms);
                Link::wan(mean, mbps).latency(LatencyModel::Normal {
                    mean_ms: mean,
                    std_ms: mean * 0.1,
                })
            })
            .collect();
        StarTopology::new(links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        let seoul = GeoPoint::new(37.57, 126.98);
        let tokyo = GeoPoint::new(35.68, 139.69);
        let d = seoul.distance_km(&tokyo);
        assert!((d - 1160.0).abs() < 30.0, "seoul-tokyo {} km", d);
        assert!(seoul.distance_km(&seoul) < 1e-9);
    }

    #[test]
    fn propagation_latency_scales_with_distance() {
        let a = GeoPoint::new(0.0, 0.0);
        let near = GeoPoint::new(1.0, 0.0);
        let far = GeoPoint::new(40.0, 0.0);
        assert!(a.propagation_ms(&far) > 10.0 * a.propagation_ms(&near));
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn geo_point_validates() {
        GeoPoint::new(91.0, 0.0);
    }

    #[test]
    fn uniform_topology() {
        let t = StarTopology::uniform(4, Link::wan(5.0, 100.0));
        assert_eq!(t.len(), 4);
        assert_eq!(t.label(EndSystemId(2)), "es2");
    }

    #[test]
    fn geo_topology_orders_latencies_by_distance() {
        let server = GeoPoint::new(37.57, 126.98); // Seoul
        let sites = vec![
            ("busan".to_string(), GeoPoint::new(35.18, 129.08)),
            ("frankfurt".to_string(), GeoPoint::new(50.11, 8.68)),
        ];
        let t = StarTopology::from_geo(server, &sites, 100.0);
        let busan = t.link(EndSystemId(0)).latency.mean();
        let frankfurt = t.link(EndSystemId(1)).latency.mean();
        assert!(frankfurt > busan);
        assert_eq!(t.label(EndSystemId(1)), "frankfurt");
    }

    #[test]
    fn latency_gradient_spans_range() {
        let t = StarTopology::latency_gradient(5, 1.0, 101.0, 50.0);
        assert_eq!(t.len(), 5);
        let fastest = t.link(EndSystemId(0)).latency.mean();
        let slowest = t.link(EndSystemId(4)).latency.mean();
        assert_eq!(fastest.as_millis(), 1);
        assert_eq!(slowest.as_millis(), 101);
    }

    #[test]
    fn ids_iterate_all_end_systems() {
        let t = StarTopology::uniform(3, Link::ideal());
        let ids: Vec<_> = t.ids().collect();
        assert_eq!(ids, vec![EndSystemId(0), EndSystemId(1), EndSystemId(2)]);
    }
}
