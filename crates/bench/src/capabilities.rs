//! Static capability matrices backing Tables 1 and 2 of the paper: which
//! features each autotuning framework supports, and which features each
//! compiler needs.
//!
//! ```
//! use baco_bench::capabilities::{framework_capabilities, Support};
//!
//! let rows = framework_capabilities();
//! let baco = rows.iter().find(|r| r.name.starts_with("BaCO")).unwrap();
//! assert_eq!(baco.permutation, Support::Yes);
//! assert_eq!(Support::No.glyph(), "×");
//! ```

/// Degree of support for a feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Fully supported.
    Yes,
    /// Not supported.
    No,
    /// Limited support (the `*` footnote in Table 1: linear-conjunction
    /// constraints only, via ConfigSpace).
    Limited,
}

impl Support {
    /// The table glyph used in the paper.
    pub fn glyph(self) -> &'static str {
        match self {
            Support::Yes => "✓",
            Support::No => "×",
            Support::Limited => "*",
        }
    }
}

/// One row of Table 1: an autotuning framework's capabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameworkRow {
    /// Framework name.
    pub name: &'static str,
    /// Real/Integer/Ordinal/Categorical parameter support.
    pub rioc: Support,
    /// Permutation parameter support.
    pub permutation: Support,
    /// Hidden-constraint support (a specialized feasibility mechanism, not
    /// penalty values).
    pub hidden: Support,
    /// Known-constraint support.
    pub known: Support,
}

/// One row of Table 2: the features a compiler's search space needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompilerRow {
    /// Compiler framework name.
    pub name: &'static str,
    /// Needs R/I/O/C parameters.
    pub rioc: bool,
    /// Needs permutation parameters.
    pub permutation: bool,
    /// Has hidden constraints.
    pub hidden: bool,
    /// Has known constraints.
    pub known: bool,
}

/// Table 1 of the paper: capabilities of 14 existing frameworks plus BaCO.
pub fn framework_capabilities() -> Vec<FrameworkRow> {
    use Support::{Limited, No, Yes};
    let row = |name, rioc, permutation, hidden, known| FrameworkRow {
        name,
        rioc,
        permutation,
        hidden,
        known,
    };
    vec![
        row("ATF", Yes, No, No, Yes),
        row("OpenTuner", Yes, Yes, No, No),
        row("Ytopt", Yes, No, No, Yes),
        row("Kernel Tuner", Yes, No, No, Yes),
        row("KTT", No, No, No, Yes),
        row("GPTune", Yes, No, No, Yes),
        row("HyperMapper", Yes, No, Yes, No),
        row("Bliss", No, No, No, No),
        row("DeepHyper", Yes, No, No, Limited),
        row("SMAC3", Yes, No, No, Limited),
        row("GpyOpt", No, No, No, Yes),
        row("Spearmint", Yes, No, Yes, No),
        row("GPflowOpt", No, No, Yes, No),
        row("cBO", No, No, Yes, No),
        row("BaCO (ours)", Yes, Yes, Yes, Yes),
    ]
}

/// Table 2 of the paper: features needed by the three evaluated compilers.
pub fn compiler_requirements() -> Vec<CompilerRow> {
    vec![
        CompilerRow {
            name: "TACO",
            rioc: true,
            permutation: true,
            hidden: true,
            known: true,
        },
        CompilerRow {
            name: "RISE & ELEVATE",
            rioc: true,
            permutation: false,
            hidden: true,
            known: true,
        },
        CompilerRow {
            name: "HPVM2FPGA",
            rioc: true,
            permutation: false,
            hidden: true,
            known: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baco_supports_everything() {
        let rows = framework_capabilities();
        let baco = rows.last().unwrap();
        assert_eq!(baco.name, "BaCO (ours)");
        assert_eq!(baco.rioc, Support::Yes);
        assert_eq!(baco.permutation, Support::Yes);
        assert_eq!(baco.hidden, Support::Yes);
        assert_eq!(baco.known, Support::Yes);
    }

    #[test]
    fn table_shapes() {
        assert_eq!(framework_capabilities().len(), 15);
        assert_eq!(compiler_requirements().len(), 3);
    }

    #[test]
    fn only_baco_and_opentuner_do_permutations() {
        let perm: Vec<_> = framework_capabilities()
            .into_iter()
            .filter(|r| r.permutation == Support::Yes)
            .map(|r| r.name)
            .collect();
        assert_eq!(perm, vec!["OpenTuner", "BaCO (ours)"]);
    }

    #[test]
    fn glyphs() {
        assert_eq!(Support::Yes.glyph(), "✓");
        assert_eq!(Support::No.glyph(), "×");
        assert_eq!(Support::Limited.glyph(), "*");
    }
}
