//! Configuration rules: each knob's rule is one [`Rule`], which the
//! configuration check and `repro`'s flag parsers both apply.

use std::fmt;

use crate::time::SimDuration;

/// A rule a configuration value must keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Finite, in `[0, 1]`.
    Probability,
    /// Finite and at least 0.
    Rate,
    /// Finite, in `[0, 1)`.
    Fraction,
    /// Seconds that make a [`SimDuration::period`].
    Period,
    /// At least 1.
    Count,
    /// At least the named bound.
    AtLeast(&'static str, u64),
    /// At most the named bound.
    AtMost(&'static str, u64),
}

impl Rule {
    /// Whether `value` keeps the rule.
    pub fn admits(self, value: f64) -> bool {
        match self {
            Rule::Probability => (0.0..=1.0).contains(&value),
            Rule::Rate => value.is_finite() && value >= 0.0,
            Rule::Fraction => (0.0..1.0).contains(&value),
            Rule::Period => SimDuration::period(value).is_some(),
            Rule::Count => value >= 1.0,
            Rule::AtLeast(_, bound) => value >= bound as f64,
            Rule::AtMost(_, bound) => value <= bound as f64,
        }
    }

    /// `Ok` if `value` keeps the rule, else the error naming `knob`.
    pub fn check(
        self,
        knob: &'static str,
        value: impl Into<f64> + fmt::Debug + Copy,
    ) -> Result<(), KnobError> {
        self.admits(value.into())
            .then_some(())
            .ok_or_else(|| KnobError {
                knob,
                value: format!("{value:?}"),
                rule: self,
            })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Probability => write!(f, "finite, in [0, 1]"),
            Rule::Rate => write!(f, "finite and at least 0"),
            Rule::Fraction => write!(f, "finite, in [0, 1)"),
            Rule::Period => write!(f, "a period of at least 1 ns that fits the simulated clock"),
            Rule::Count => write!(f, "at least 1"),
            Rule::AtLeast(what, bound) => write!(f, "at least {what} ({bound})"),
            Rule::AtMost(what, bound) => write!(f, "at most {what} ({bound})"),
        }
    }
}

/// A configuration value that breaks its knob's rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The knob, named as its field is.
    pub knob: &'static str,
    /// The refused value, as it prints.
    pub value: String,
    /// The rule it breaks.
    pub rule: Rule,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let KnobError { knob, value, rule } = self;
        write!(f, "{knob} out of range: {value}; must be {rule}")
    }
}

impl std::error::Error for KnobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_rule_admits_its_range_and_names_the_knob() {
        let cases: [(Rule, &[f64], &[f64]); 5] = [
            (
                Rule::Probability,
                &[0.0, 0.5, 1.0],
                &[-1e-300, 1.5, f64::NAN],
            ),
            (
                Rule::Rate,
                &[0.0, 1e-300, 1e300],
                &[-1.0, f64::INFINITY, f64::NAN],
            ),
            (Rule::Fraction, &[0.0, 0.995], &[1.0, -0.5, f64::NAN]),
            (
                Rule::Period,
                &[1e-9, 1.0, 1.8e10],
                &[0.0, 4e-10, 1e300, f64::NAN],
            ),
            (Rule::Count, &[1.0, 4e9], &[0.0, f64::NAN]),
        ];
        for (rule, kept, broken) in cases {
            for &v in kept {
                assert!(rule.admits(v), "{rule:?} refused {v:?}");
            }
            for &v in broken {
                assert!(!rule.admits(v), "{rule:?} admitted {v:?}");
            }
        }
        assert_eq!(
            Rule::Probability
                .check("write_fail_rate", 2.0)
                .unwrap_err()
                .to_string(),
            "write_fail_rate out of range: 2.0; must be finite, in [0, 1]"
        );
        assert_eq!(
            Rule::AtLeast("ecc_correctable", 8)
                .check("retry_threshold", 2u32)
                .unwrap_err()
                .to_string(),
            "retry_threshold out of range: 2; must be at least ecc_correctable (8)"
        );
        assert!(Rule::AtMost("the fillable blocks", 256)
            .check("blocks", 256u32)
            .is_ok());
    }
}
