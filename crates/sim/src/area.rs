//! Component area/power bookkeeping (the substrate for Table IV, Fig. 15,
//! and the Fig. 16(a) scaling study).

/// One hardware component with synthesized area and power.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Display name (e.g. `"Fast Prefix"`).
    pub name: String,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

impl Component {
    /// Creates a component record.
    pub fn new(name: impl Into<String>, area_mm2: f64, power_mw: f64) -> Self {
        Component {
            name: name.into(),
            area_mm2,
            power_mw,
        }
    }
}

/// A table of components with totals and percentage breakdowns.
///
/// # Examples
///
/// ```
/// use loas_sim::{Component, ComponentTable};
///
/// let mut t = ComponentTable::new();
/// t.push(Component::new("a", 1.0, 10.0));
/// t.push(Component::new("b", 3.0, 30.0));
/// assert_eq!(t.total_area_mm2(), 4.0);
/// assert_eq!(t.area_share("b").unwrap(), 0.75);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComponentTable {
    components: Vec<Component>,
}

impl ComponentTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a component.
    pub fn push(&mut self, component: Component) {
        self.components.push(component);
    }

    /// The components in insertion order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Total area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }

    /// Total power in mW.
    pub fn total_power_mw(&self) -> f64 {
        self.components.iter().map(|c| c.power_mw).sum()
    }

    /// Area share of the named component in `[0, 1]`, or `None` if absent.
    pub fn area_share(&self, name: &str) -> Option<f64> {
        let total = self.total_area_mm2();
        self.components.iter().find(|c| c.name == name).map(|c| {
            if total == 0.0 {
                0.0
            } else {
                c.area_mm2 / total
            }
        })
    }

    /// Power share of the named component in `[0, 1]`, or `None` if absent.
    pub fn power_share(&self, name: &str) -> Option<f64> {
        let total = self.total_power_mw();
        self.components.iter().find(|c| c.name == name).map(|c| {
            if total == 0.0 {
                0.0
            } else {
                c.power_mw / total
            }
        })
    }
}

impl FromIterator<Component> for ComponentTable {
    fn from_iter<I: IntoIterator<Item = Component>>(iter: I) -> Self {
        ComponentTable {
            components: iter.into_iter().collect(),
        }
    }
}

/// An affine-in-`T` area/power scaling model: `value(T) = base + per_t · T`.
///
/// The paper's Fig. 16(a) reports the share of TPPE area/power that grows
/// with the timestep count: 12.5% / 22.2% / 36.3% of area at T = 4 / 8 / 16,
/// which is exactly an affine model (the t-dependent portion is the
/// accumulators and the input data buffer). This type solves for the model
/// from one calibration point and reproduces the scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineScaling {
    base: f64,
    per_t: f64,
}

impl AffineScaling {
    /// Builds the model from a total at a calibration `t` and the share of
    /// that total that is t-dependent (e.g. area 0.06 mm² at T=4 with a
    /// 12.5% t-dependent share).
    ///
    /// # Panics
    ///
    /// Panics for non-positive totals or shares outside `(0, 1)`.
    pub fn from_share(total_at_t: f64, t_dependent_share: f64, t: usize) -> Self {
        assert!(total_at_t > 0.0, "total must be positive");
        assert!(
            (0.0..1.0).contains(&t_dependent_share) && t_dependent_share > 0.0,
            "share must be in (0, 1)"
        );
        assert!(t > 0, "calibration T must be positive");
        let per_t = total_at_t * t_dependent_share / t as f64;
        AffineScaling {
            base: total_at_t * (1.0 - t_dependent_share),
            per_t,
        }
    }

    /// The value at `t` timesteps.
    pub fn at(&self, t: usize) -> f64 {
        self.base + self.per_t * t as f64
    }

    /// The t-dependent share at `t` timesteps (the "yellow region" of
    /// Fig. 16(a)).
    pub fn share_at(&self, t: usize) -> f64 {
        let total = self.at(t);
        if total == 0.0 {
            0.0
        } else {
            self.per_t * t as f64 / total
        }
    }

    /// Growth ratio between two timestep counts.
    pub fn ratio(&self, t_num: usize, t_den: usize) -> f64 {
        self.at(t_num) / self.at(t_den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_totals_and_shares() {
        let t: ComponentTable = [
            Component::new("Fast Prefix", 0.04, 1.46),
            Component::new("Laggy Prefix", 0.005, 0.32),
        ]
        .into_iter()
        .collect();
        assert!((t.total_area_mm2() - 0.045).abs() < 1e-12);
        assert!((t.total_power_mw() - 1.78).abs() < 1e-12);
        assert!(t.area_share("Fast Prefix").unwrap() > 0.8);
        assert!(t.power_share("missing").is_none());
    }

    #[test]
    fn affine_reproduces_fig16a_area_shares() {
        // Area: 12.5% t-dependent at T=4 must give 22.2% at T=8 and 36.3%
        // at T=16 with a 1.37x growth from T=4 to T=16 (paper numbers).
        let model = AffineScaling::from_share(0.06, 0.125, 4);
        assert!((model.share_at(4) - 0.125).abs() < 1e-9);
        assert!((model.share_at(8) - 0.222).abs() < 2e-3);
        assert!((model.share_at(16) - 0.363).abs() < 2e-3);
        assert!((model.ratio(16, 4) - 1.37).abs() < 0.01);
    }

    #[test]
    fn affine_reproduces_fig16a_power_shares() {
        // Power: 8.4% at T=4 -> 15.5% at T=8 -> 26.8% at T=16, 1.25x growth.
        let model = AffineScaling::from_share(2.82, 0.084, 4);
        assert!((model.share_at(8) - 0.155).abs() < 2e-3);
        assert!((model.share_at(16) - 0.268).abs() < 2e-3);
        assert!((model.ratio(16, 4) - 1.25).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "share must be in")]
    fn bad_share_rejected() {
        AffineScaling::from_share(1.0, 1.5, 4);
    }
}
