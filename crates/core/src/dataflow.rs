//! The Section III design-space analysis behind the FTP dataflow.
//!
//! Adding the SNN timestep loop to the three canonical spMspM dataflows
//! yields a design space of loop orders; Section III evaluates each
//! placement of the `t` loop against three goals: (1) no extra data refetch
//! across timesteps, (2) no extra partial sums on the temporal dimension,
//! and (3) no serialized timestep latency. [`analyze`] encodes those
//! observations analytically.
//!
//! No accelerator model reads this module: Algorithm 1 itself runs in
//! [`crate::Loas`], whose verified datapath is checked bit-exact against
//! the golden layer. Its reader is `examples/dataflow_explorer.rs`, which
//! prints the whole design space and marks FTP as the one variant meeting
//! all three goals. It stays as the executable form of the paper's
//! argument for building LoAS around FTP.

/// The base spMspM loop order (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopOrder {
    /// Inner-product: `m → n → k`.
    InnerProduct,
    /// Outer-product: `k → m → n`.
    OuterProduct,
    /// Gustavson's: `m → k → n`.
    Gustavson,
}

impl LoopOrder {
    /// All three base orders.
    pub const ALL: [LoopOrder; 3] = [
        LoopOrder::InnerProduct,
        LoopOrder::OuterProduct,
        LoopOrder::Gustavson,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LoopOrder::InnerProduct => "IP",
            LoopOrder::OuterProduct => "OP",
            LoopOrder::Gustavson => "Gust",
        }
    }

    /// The spatial loops from outermost to innermost.
    fn loops(self) -> [SpatialLoop; 3] {
        match self {
            LoopOrder::InnerProduct => [SpatialLoop::M, SpatialLoop::N, SpatialLoop::K],
            LoopOrder::OuterProduct => [SpatialLoop::K, SpatialLoop::M, SpatialLoop::N],
            LoopOrder::Gustavson => [SpatialLoop::M, SpatialLoop::K, SpatialLoop::N],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SpatialLoop {
    M,
    N,
    K,
}

/// Where the timestep loop sits relative to the three spatial loops
/// (position 0 = outermost, 3 = innermost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TPlacement(pub usize);

impl TPlacement {
    /// All four placements.
    pub const ALL: [TPlacement; 4] = [TPlacement(0), TPlacement(1), TPlacement(2), TPlacement(3)];

    /// Whether `t` is the innermost loop (the FTP choice).
    pub fn is_innermost(self) -> bool {
        self.0 == 3
    }
}

/// One point in the SNN spMspM dataflow design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataflowVariant {
    /// Base spatial order.
    pub order: LoopOrder,
    /// Timestep loop position.
    pub t_placement: TPlacement,
    /// Whether the `t` loop is spatially unrolled (parallel-for) rather than
    /// sequential.
    pub temporal_parallel: bool,
}

impl DataflowVariant {
    /// The paper's FTP dataflow: IP order, `t` innermost, unrolled.
    pub fn ftp() -> Self {
        DataflowVariant {
            order: LoopOrder::InnerProduct,
            t_placement: TPlacement(3),
            temporal_parallel: true,
        }
    }

    /// Enumerates the sequential design space (3 orders x 4 placements)
    /// plus the three temporal-parallel innermost variants.
    pub fn design_space() -> Vec<DataflowVariant> {
        let mut space = Vec::new();
        for order in LoopOrder::ALL {
            for t_placement in TPlacement::ALL {
                space.push(DataflowVariant {
                    order,
                    t_placement,
                    temporal_parallel: false,
                });
            }
            space.push(DataflowVariant {
                order,
                t_placement: TPlacement(3),
                temporal_parallel: true,
            });
        }
        space
    }
}

/// Analytical cost factors of a dataflow variant relative to the same base
/// order at `T = 1` (Section III's three observations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataflowCosts {
    /// Multiplier on `A` accesses caused by the `t` placement.
    pub a_refetch_factor: f64,
    /// Multiplier on `B` accesses caused by the `t` placement.
    pub b_refetch_factor: f64,
    /// Multiplier on live partial sums on the temporal dimension.
    pub psum_factor: f64,
    /// Multiplier on latency from processing timesteps.
    pub latency_factor: f64,
}

impl DataflowCosts {
    /// Whether the variant meets all three SNN-friendly goals.
    pub fn meets_all_goals(&self) -> bool {
        self.a_refetch_factor <= 1.0
            && self.b_refetch_factor <= 1.0
            && self.psum_factor <= 1.0
            && self.latency_factor <= 1.0
    }
}

/// Analyzes one dataflow variant for `t_count` timesteps.
///
/// Observations encoded (Section III):
/// * `A` varies with `t`; `B` does not. Every spatial loop *below* the `t`
///   loop that indexes `B` is re-traversed `T` times → `T`× refetch on `B`;
///   `A` is inherently read once per `(m, k, t)`, but placing `t` above
///   spatial loops that tile `A` forces `T`× traversal of `A`'s index space
///   only when `t` sits above loops indexing `A` **and** below ones that
///   must repeat.
/// * OP and Gust materialise partial outputs along `k`; a `t` loop that is
///   not innermost multiplies live psums by `T`.
/// * A sequential `t` loop multiplies latency by `T` wherever it sits.
pub fn analyze(variant: DataflowVariant, t_count: usize) -> DataflowCosts {
    let t = t_count.max(1) as f64;
    let loops = variant.order.loops();
    let pos = variant.t_placement.0.min(3);
    // Spatial loops strictly below the t placement.
    let below = &loops[pos..];
    // B is indexed by (k, n): if any loop below t indexes B, those loops are
    // re-run per timestep -> T x B refetch.
    let b_below = below
        .iter()
        .any(|l| matches!(l, SpatialLoop::K | SpatialLoop::N));
    // A is indexed by (m, k) and t: refetching A beyond once happens when t
    // is above spatial loops that enumerate A's coordinates.
    let a_below = below
        .iter()
        .any(|l| matches!(l, SpatialLoop::M | SpatialLoop::K));
    let (a_refetch, b_refetch) = if variant.t_placement.is_innermost() {
        (1.0, 1.0)
    } else {
        (if a_below { t } else { 1.0 }, if b_below { t } else { 1.0 })
    };
    // Psums: IP reduces each output fully before moving on (output reuse),
    // so the t dimension adds no live psums when innermost. OP/Gust keep
    // partial outputs live across k; the t dimension multiplies them.
    let psum_factor = match variant.order {
        LoopOrder::InnerProduct => 1.0,
        LoopOrder::OuterProduct | LoopOrder::Gustavson => t,
    };
    let latency_factor = if variant.temporal_parallel { 1.0 } else { t };
    DataflowCosts {
        a_refetch_factor: a_refetch,
        b_refetch_factor: b_refetch,
        psum_factor,
        latency_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ftp_meets_all_goals() {
        let costs = analyze(DataflowVariant::ftp(), 4);
        assert!(costs.meets_all_goals());
        assert_eq!(costs.latency_factor, 1.0);
    }

    #[test]
    fn ftp_is_unique_in_meeting_all_goals() {
        let winners: Vec<DataflowVariant> = DataflowVariant::design_space()
            .into_iter()
            .filter(|v| analyze(*v, 4).meets_all_goals())
            .collect();
        assert_eq!(winners, vec![DataflowVariant::ftp()]);
    }

    #[test]
    fn sequential_t_always_multiplies_latency() {
        for order in LoopOrder::ALL {
            for placement in TPlacement::ALL {
                let costs = analyze(
                    DataflowVariant {
                        order,
                        t_placement: placement,
                        temporal_parallel: false,
                    },
                    4,
                );
                assert_eq!(
                    costs.latency_factor,
                    4.0,
                    "{} t@{}",
                    order.name(),
                    placement.0
                );
            }
        }
    }

    #[test]
    fn op_with_t_between_m_and_n_refetches_b() {
        // Section III example: in OP, t between m and n -> T x more access
        // to B's rows.
        let costs = analyze(
            DataflowVariant {
                order: LoopOrder::OuterProduct,
                t_placement: TPlacement(2),
                temporal_parallel: false,
            },
            4,
        );
        assert_eq!(costs.b_refetch_factor, 4.0);
    }

    #[test]
    fn op_and_gust_multiply_psums() {
        for order in [LoopOrder::OuterProduct, LoopOrder::Gustavson] {
            let costs = analyze(
                DataflowVariant {
                    order,
                    t_placement: TPlacement(3),
                    temporal_parallel: false,
                },
                4,
            );
            assert_eq!(costs.psum_factor, 4.0, "{}", order.name());
        }
    }

    #[test]
    fn design_space_size() {
        // 3 orders x 4 sequential placements + 3 parallel variants.
        assert_eq!(DataflowVariant::design_space().len(), 15);
    }
}
