//! Edit-operation cost models.

/// Costs of the six edit operations.
///
/// The graph edit distance is the minimum total cost of an edit path turning
/// one graph into the other. For the distance to be a *metric* — which
/// Theorems 3–8 of the paper require — the costs must be symmetric (shared
/// insert/delete costs, as modeled here) and substitutions must not exceed a
/// delete + insert (`sub ≤ del + ins`), which [`CostModel::validate`] checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of relabeling a node (applied only when labels differ).
    pub node_sub: f64,
    /// Cost of inserting or deleting a node.
    pub node_indel: f64,
    /// Cost of relabeling an edge (applied only when labels differ).
    pub edge_sub: f64,
    /// Cost of inserting or deleting an edge.
    pub edge_indel: f64,
}

impl CostModel {
    /// The classical uniform model: every operation costs 1.
    pub const fn uniform() -> Self {
        Self {
            node_sub: 1.0,
            node_indel: 1.0,
            edge_sub: 1.0,
            edge_indel: 1.0,
        }
    }

    /// Checks the metric conditions (non-negative, `sub ≤ 2·indel`).
    pub fn validate(&self) -> Result<(), String> {
        let vals = [
            self.node_sub,
            self.node_indel,
            self.edge_sub,
            self.edge_indel,
        ];
        if vals.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err("costs must be finite and non-negative".into());
        }
        if self.node_sub > 2.0 * self.node_indel + 1e-12 {
            return Err("node_sub must be ≤ 2 · node_indel for metricity".into());
        }
        if self.edge_sub > 2.0 * self.edge_indel + 1e-12 {
            return Err("edge_sub must be ≤ 2 · edge_indel for metricity".into());
        }
        Ok(())
    }

    /// Node substitution cost between two labels.
    #[inline]
    pub fn node_subst(&self, a: u32, b: u32) -> f64 {
        if a == b {
            0.0
        } else {
            self.node_sub
        }
    }

    /// Edge substitution cost between two labels.
    #[inline]
    pub fn edge_subst(&self, a: u32, b: u32) -> f64 {
        if a == b {
            0.0
        } else {
            self.edge_sub
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_valid() {
        assert!(CostModel::uniform().validate().is_ok());
    }

    #[test]
    fn subst_costs() {
        let c = CostModel::uniform();
        assert_eq!(c.node_subst(3, 3), 0.0);
        assert_eq!(c.node_subst(3, 4), 1.0);
        assert_eq!(c.edge_subst(1, 1), 0.0);
        assert_eq!(c.edge_subst(1, 2), 1.0);
    }

    #[test]
    fn rejects_negative() {
        let mut c = CostModel::uniform();
        c.node_sub = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_non_metric_sub() {
        let mut c = CostModel::uniform();
        c.node_sub = 3.0; // > 2·node_indel
        assert!(c.validate().is_err());
        let mut c = CostModel::uniform();
        c.edge_sub = 2.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_nan() {
        let mut c = CostModel::uniform();
        c.edge_indel = f64::NAN;
        assert!(c.validate().is_err());
    }
}
