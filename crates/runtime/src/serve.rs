//! The vocabulary of multi-tenant serving.
//!
//! The paper's headline deployment serves *many* ML apps on one switch:
//! models are scheduled sequentially or in parallel on a shared data
//! plane, and downstream apps can consume upstream verdicts (§3.1, §5.1.3).
//! [`crate::deploy::Deployment`] is the software twin of that multiplexed
//! switch and the one serving frontend; this module holds the types its
//! callers exchange with it: a [`TenantId`] per registered app, the
//! tenant-tagged [`TenantBatch`] they submit — including the chained form
//! ([`TenantBatch::chained`]) that mirrors the paper's sequential `>`
//! operator, where a downstream app expecting one extra feature consumes
//! the upstream verdict in that slot — and the per-tenant [`TenantStats`]
//! a deployment reports back.

use crate::{Result, RuntimeError};
use homunculus_ml::tensor::Matrix;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// Monotonic tag distinguishing deployment instances, so a [`TenantId`]
/// minted by one can never silently address another's tenant that
/// happens to share the index.
static NEXT_SERVER_TAG: AtomicU32 = AtomicU32::new(1);

/// Mints the next instance tag.
pub(crate) fn next_server_tag() -> u32 {
    NEXT_SERVER_TAG.fetch_add(1, Ordering::Relaxed)
}

/// Identifies a registered tenant (a scheduled app) of one specific
/// deployment: ids carry the minting deployment's tag, and every entry
/// point rejects ids from a different deployment instead of misrouting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId {
    index: usize,
    server: u32,
}

impl TenantId {
    /// The tenant's registration index within its deployment.
    pub fn index(self) -> usize {
        self.index
    }

    /// Mints an id for `index` under instance tag `server`.
    pub(crate) fn mint(index: usize, server: u32) -> Self {
        TenantId { index, server }
    }

    /// The minting instance's tag.
    pub(crate) fn server(self) -> u32 {
        self.server
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.index)
    }
}

/// A batch of packets addressed to one tenant, optionally carrying oracle
/// verdicts (e.g. the float reference model's predictions, or ground-truth
/// labels) for agreement accounting.
#[derive(Debug, Clone)]
pub struct TenantBatch {
    /// The tenant this batch is addressed to.
    pub tenant: TenantId,
    /// One packet per row, in the tenant's *raw* feature space (the
    /// deployment applies the tenant's normalizer).
    pub features: Matrix,
    /// Optional per-row oracle verdicts; must match the row count.
    pub oracle: Option<Vec<usize>>,
}

impl TenantBatch {
    /// A batch without oracle verdicts.
    pub fn new(tenant: TenantId, features: Matrix) -> Self {
        TenantBatch {
            tenant,
            features,
            oracle: None,
        }
    }

    /// Attaches oracle verdicts for agreement accounting.
    #[must_use]
    pub fn with_oracle(mut self, oracle: Vec<usize>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Builds the next-hop batch of a *chained* submission: the rows of
    /// `packets` that survived an upstream model (`rows`, as indices into
    /// it) plus that model's per-row verdicts as a trailing tag feature —
    /// the serving-side form of the paper's `a > b` model chaining. Rows
    /// and tags are gathered into the batch's matrix in one pass.
    ///
    /// The downstream model declares its expectation through
    /// `expected_cols` (its input width): when it equals the packet width
    /// the tags are dropped (the model was trained without a tag column);
    /// when it equals packet width + 1 each row is extended with its tag.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Serve`] when `rows` is empty or names a row
    /// `packets` does not have, when `tags` is not parallel to `rows`, or
    /// when `expected_cols` matches neither the raw nor the tag-extended
    /// width.
    pub fn chained(
        tenant: TenantId,
        packets: &Matrix,
        rows: &[usize],
        tags: &[f32],
        expected_cols: usize,
    ) -> Result<Self> {
        if rows.is_empty() {
            return Err(RuntimeError::Serve("chained batch has no rows".into()));
        }
        if tags.len() != rows.len() {
            return Err(RuntimeError::Serve(format!(
                "chained batch has {} rows but {} tags",
                rows.len(),
                tags.len()
            )));
        }
        let cols = packets.cols();
        if expected_cols != cols && expected_cols != cols + 1 {
            return Err(RuntimeError::Serve(format!(
                "chained batch width {cols} (or {} tagged) does not match the \
                 downstream model's {expected_cols} features",
                cols + 1
            )));
        }
        let mut data = Vec::with_capacity(rows.len() * expected_cols);
        for (&row, &tag) in rows.iter().zip(tags) {
            if row >= packets.rows() {
                return Err(RuntimeError::Serve(format!(
                    "chained batch names row {row} of a {}-row packet matrix",
                    packets.rows()
                )));
            }
            data.extend_from_slice(packets.row(row));
            if expected_cols > cols {
                data.push(tag);
            }
        }
        let features = Matrix::from_vec(rows.len(), expected_cols, data)
            .expect("one expected_cols-wide row gathered per index");
        Ok(TenantBatch::new(tenant, features))
    }
}

/// Per-tenant serving statistics and scheduling shares, one record per
/// tenant in a [`DeploymentStats`](crate::deploy::DeploymentStats).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant these stats belong to.
    pub tenant: TenantId,
    /// The tenant's registered name.
    pub name: String,
    /// Packets classified for this tenant.
    pub packets: usize,
    /// Verdict counts indexed by class.
    pub verdict_histogram: Vec<usize>,
    /// Median service time per row in nanoseconds. Whoever classifies a
    /// chunk (a worker, a helping waiter or an inline submit) times it as a
    /// whole (normalize, quantize and classify) and records one sample per
    /// chunk: that time divided by the chunk's rows.
    pub p50_ns: u64,
    /// 99th percentile of the same per-chunk samples, in nanoseconds.
    pub p99_ns: u64,
    /// Mean of the same per-chunk samples, in nanoseconds.
    pub mean_ns: f64,
    /// Packets that carried an oracle verdict.
    pub oracle_packets: usize,
    /// Of those, packets where the served verdict agreed with the oracle.
    pub oracle_agreements: usize,
    /// Relative dispatch weight from the tenant's
    /// [`SchedulePolicy`](crate::deploy::SchedulePolicy).
    pub weight: f64,
    /// Guaranteed aggregate-share floor.
    pub min_share: f64,
    /// Rows dispatched for this tenant since launch.
    pub served_rows: u64,
    /// Rows still queued for this tenant.
    pub queued_rows: u64,
    /// `served_rows / Σ served_rows` (0.0 before the first dispatch).
    pub observed_share: f64,
    /// The tenant's share of dispatched rows within the current decaying
    /// fairness window — what the floor pass actually compares against
    /// `min_share` (equals `observed_share` when the window is disabled).
    pub windowed_share: f64,
    /// Whether the tenant still accepts submissions.
    pub active: bool,
}

impl TenantStats {
    /// Agreement fraction against the oracle, or `None` if no batch
    /// carried oracle verdicts.
    pub fn oracle_agreement(&self) -> Option<f64> {
        if self.oracle_packets == 0 {
            None
        } else {
            Some(self.oracle_agreements as f64 / self.oracle_packets as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chained_batches_adapt_to_downstream_width() {
        let (raw, tagged) = (TenantId::mint(0, 1), TenantId::mint(1, 1));
        let packets = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        // Rows 3 and 1 survived, in that order.
        let (rows, tags) = ([3, 1], [1.0, 0.0]);

        // Same width: tags dropped, the named rows forwarded untouched.
        let batch = TenantBatch::chained(raw, &packets, &rows, &tags, 3).unwrap();
        assert_eq!(batch.features.shape(), (2, 3));
        assert_eq!(batch.features.row(0), packets.row(3));
        assert_eq!(batch.features.row(1), packets.row(1));
        assert!(batch.oracle.is_none());

        // Width + 1: each row gains its tag as the trailing feature.
        let batch = TenantBatch::chained(tagged, &packets, &rows, &tags, 4).unwrap();
        assert_eq!(batch.features.shape(), (2, 4));
        assert_eq!(&batch.features.row(0)[..3], packets.row(3));
        assert_eq!(batch.features.row(0)[3], 1.0);
        assert_eq!(&batch.features.row(1)[..3], packets.row(1));
        assert_eq!(batch.features.row(1)[3], 0.0);

        // Any other width, tags not parallel to rows, no rows, and a row
        // the packet matrix does not have are serve errors.
        for (rows, tags, expected_cols) in [
            (&rows[..], &tags[..], 7),
            (&rows[..], &tags[..1], 3),
            (&[][..], &[][..], 3),
            (&[1, 4][..], &tags[..], 3),
            (&[1, 4][..], &tags[..], 4),
        ] {
            assert!(matches!(
                TenantBatch::chained(raw, &packets, rows, tags, expected_cols),
                Err(RuntimeError::Serve(_))
            ));
        }
    }
}
