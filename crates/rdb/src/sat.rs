//! Conjunctive-predicate satisfiability over `column θ literal` atoms.
//!
//! Step 1 of U-Filter (§4, delete check (i)) must decide whether the
//! non-correlation predicates of a user update "overlap" with the check
//! annotations captured in the view ASG: `u5` deletes reviews of books with
//! `price > 50.00` while the view only contains books with `price < 50.00`,
//! so the conjunction `price > 50 ∧ price < 50` is unsatisfiable and the
//! update is invalid.
//!
//! The solver handles, per column: an equality pin, disequalities, and an
//! interval; columns are independent, so a conjunction is satisfiable iff
//! every per-column domain is non-empty. Atoms outside this fragment
//! (disjunctions, correlations) are treated conservatively as satisfiable.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::expr::{CmpOp, ColRef, Expr};
use crate::types::{DataType, Value};

/// One endpoint of an interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bound {
    pub value: Value,
    pub inclusive: bool,
}

/// The set of values a single column may take under a conjunction of atoms.
/// Equality and hashing compare the parts by [`Value`]'s equality, under
/// which `Int(20)` equals `Double(20.0)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Domain {
    pub eq: Option<Value>,
    pub ne: Vec<Value>,
    pub lower: Option<Bound>,
    pub upper: Option<Bound>,
    contradiction: bool,
}

impl Domain {
    /// Reassemble a domain from previously extracted parts. Persistence
    /// support: a domain round-tripped through an external encoding must
    /// preserve the (otherwise private) contradiction flag, not re-derive
    /// it — `constrain` records contradictions incrementally and the parts
    /// alone cannot distinguish `price = 1 AND price = 2` from an
    /// untightened pin.
    pub fn from_parts(
        eq: Option<Value>,
        ne: Vec<Value>,
        lower: Option<Bound>,
        upper: Option<Bound>,
        contradiction: bool,
    ) -> Domain {
        Domain { eq, ne, lower, upper, contradiction }
    }

    /// Whether a contradiction has been recorded (`price = 1 AND price = 2`,
    /// or any comparison against a NULL literal).
    pub fn is_contradiction(&self) -> bool {
        self.contradiction
    }

    /// Add one atom `col op v` to the domain.
    pub fn constrain(&mut self, op: CmpOp, v: &Value) {
        if self.contradiction || v.is_null() {
            // Predicates on NULL literals never hold; treat as contradiction.
            if v.is_null() {
                self.contradiction = true;
            }
            return;
        }
        match op {
            CmpOp::Eq => match &self.eq {
                Some(prev) if prev.sql_eq(v) != Some(true) => self.contradiction = true,
                _ => self.eq = Some(v.clone()),
            },
            CmpOp::Ne => self.ne.push(v.clone()),
            CmpOp::Lt => self.tighten_upper(Bound { value: v.clone(), inclusive: false }),
            CmpOp::Le => self.tighten_upper(Bound { value: v.clone(), inclusive: true }),
            CmpOp::Gt => self.tighten_lower(Bound { value: v.clone(), inclusive: false }),
            CmpOp::Ge => self.tighten_lower(Bound { value: v.clone(), inclusive: true }),
        }
    }

    fn tighten_lower(&mut self, b: Bound) {
        let replace = match &self.lower {
            None => true,
            Some(cur) => match b.value.sql_cmp(&cur.value) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => !b.inclusive && cur.inclusive,
                _ => false,
            },
        };
        if replace {
            self.lower = Some(b);
        }
    }

    fn tighten_upper(&mut self, b: Bound) {
        let replace = match &self.upper {
            None => true,
            Some(cur) => match b.value.sql_cmp(&cur.value) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => !b.inclusive && cur.inclusive,
                _ => false,
            },
        };
        if replace {
            self.upper = Some(b);
        }
    }

    /// Does `v` satisfy every constraint collected so far?
    pub fn contains(&self, v: &Value) -> bool {
        if self.contradiction || v.is_null() {
            return false;
        }
        if let Some(eq) = &self.eq {
            if eq.sql_eq(v) != Some(true) {
                return false;
            }
        }
        if self.ne.iter().any(|n| n.sql_eq(v) == Some(true)) {
            return false;
        }
        if let Some(lo) = &self.lower {
            match v.sql_cmp(&lo.value) {
                Some(Ordering::Greater) => {}
                Some(Ordering::Equal) if lo.inclusive => {}
                _ => return false,
            }
        }
        if let Some(hi) = &self.upper {
            match v.sql_cmp(&hi.value) {
                Some(Ordering::Less) => {}
                Some(Ordering::Equal) if hi.inclusive => {}
                _ => return false,
            }
        }
        true
    }

    /// Is the domain non-empty?
    ///
    /// `hint` sharpens the test for integral types: `x > 1 ∧ x < 2` is empty
    /// over `Int`/`Date` but not over `Double`.
    pub fn satisfiable(&self, hint: Option<DataType>) -> bool {
        if self.contradiction {
            return false;
        }
        if let Some(eq) = &self.eq {
            return self.contains(eq);
        }
        if let (Some(lo), Some(hi)) = (&self.lower, &self.upper) {
            match lo.value.sql_cmp(&hi.value) {
                None => return true, // incomparable types: be conservative
                Some(Ordering::Greater) => return false,
                Some(Ordering::Equal) => {
                    if !(lo.inclusive && hi.inclusive) {
                        return false;
                    }
                    // Pinned to one point; check disequalities.
                    return self.contains(&lo.value);
                }
                Some(Ordering::Less) => {
                    if matches!(hint, Some(DataType::Int | DataType::Date)) {
                        if let (Some(a), Some(b)) = (int_of(&lo.value), int_of(&hi.value)) {
                            let min = if lo.inclusive { a } else { a + 1 };
                            let max = if hi.inclusive { b } else { b - 1 };
                            if min > max {
                                return false;
                            }
                            // A finite integer interval can be exhausted by ≠.
                            let width = (max - min + 1) as usize;
                            if width <= self.ne.len() + 1 {
                                return (min..=max).any(|i| self.contains(&Value::Int(i)));
                            }
                        }
                    }
                }
            }
        }
        // Open or wide interval: finitely many ≠ cannot exhaust it.
        true
    }
}

impl Domain {
    /// Exhibit a value satisfying every constraint, if one is easy to find.
    ///
    /// Used by the translation engine to fill columns the view does not
    /// project but its predicates range over: the paper's own translated
    /// insert `U2` invents `year = 1994` to satisfy `year > 1990`.
    pub fn witness(&self, hint: Option<DataType>) -> Option<Value> {
        if self.contradiction {
            return None;
        }
        let mut candidates: Vec<Value> = Vec::new();
        if let Some(eq) = &self.eq {
            candidates.push(eq.clone());
        }
        let integral = matches!(hint, Some(DataType::Int | DataType::Date));
        for b in [&self.lower, &self.upper].into_iter().flatten() {
            candidates.push(b.value.clone());
            if let Some(i) = int_of(&b.value) {
                candidates.push(if integral {
                    Value::Int(i + 1)
                } else {
                    Value::Double(i as f64 + 1.0)
                });
                candidates.push(if integral {
                    Value::Int(i - 1)
                } else {
                    Value::Double(i as f64 - 1.0)
                });
            }
            if let Value::Double(d) = &b.value {
                candidates.push(Value::Double(d + 1.0));
                candidates.push(Value::Double(d - 1.0));
            }
            if let Value::Str(s) = &b.value {
                candidates.push(Value::Str(format!("{s}a")));
            }
        }
        // Wholly unconstrained-but-for-≠ domains: try small defaults.
        candidates.push(Value::Int(1));
        candidates.push(Value::Double(1.0));
        candidates.push(Value::str("a"));
        let mut typed: Vec<Value> = Vec::new();
        for c in candidates {
            let c = match hint {
                Some(ty) if c.conforms_to(ty) => c.coerce(ty),
                Some(_) => continue,
                None => c,
            };
            typed.push(c);
        }
        typed.into_iter().find(|c| self.contains(c))
    }
}

fn int_of(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) | Value::Date(i) => Some(*i),
        Value::Double(d) if d.fract() == 0.0 => Some(*d as i64),
        _ => None,
    }
}

/// A conjunction of atoms grouped per column.
#[derive(Debug, Clone, Default)]
pub struct Conjunction {
    domains: HashMap<(String, String), Domain>,
    /// Type hints per column, fed by the caller from the schema.
    hints: HashMap<(String, String), DataType>,
}

impl Conjunction {
    pub fn new() -> Conjunction {
        Conjunction::default()
    }

    fn key(c: &ColRef) -> (String, String) {
        (c.table.to_ascii_lowercase(), c.column.to_ascii_lowercase())
    }

    pub fn hint(&mut self, col: &ColRef, ty: DataType) {
        self.hints.insert(Self::key(col), ty);
    }

    pub fn add_atom(&mut self, col: &ColRef, op: CmpOp, v: &Value) {
        self.domains.entry(Self::key(col)).or_default().constrain(op, v);
    }

    /// Fold every recognisable `column θ literal` conjunct of `e` into the
    /// conjunction. Unrecognised conjuncts are skipped (conservative).
    pub fn add_expr(&mut self, e: &Expr) {
        for c in e.conjuncts() {
            if let Some((col, op, v)) = c.as_column_literal() {
                self.add_atom(col, op, v);
            }
        }
    }

    pub fn domain(&self, col: &ColRef) -> Option<&Domain> {
        self.domains.get(&Self::key(col))
    }

    /// Is the whole conjunction satisfiable?
    pub fn satisfiable(&self) -> bool {
        self.domains.iter().all(|(k, d)| d.satisfiable(self.hints.get(k).copied()))
    }
}

/// Convenience: are `a ∧ b` jointly satisfiable over the `col θ lit` fragment?
pub fn overlap(a: &Expr, b: &Expr) -> bool {
    let mut c = Conjunction::new();
    c.add_expr(a);
    c.add_expr(b);
    c.satisfiable()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn price() -> ColRef {
        ColRef::new("book", "price")
    }

    #[test]
    fn u5_style_contradiction() {
        // view: price < 50 AND price > 0 ; update: price > 50  → empty
        let view = Expr::and([
            Expr::lt(Expr::col("book", "price"), Expr::lit(Value::Double(50.0))),
            Expr::gt(Expr::col("book", "price"), Expr::lit(Value::Double(0.0))),
        ]);
        let upd = Expr::gt(Expr::col("book", "price"), Expr::lit(Value::Double(50.0)));
        assert!(!overlap(&view, &upd));
    }

    #[test]
    fn u8_style_overlap() {
        // view: price < 50 ; update: price < 40 → satisfiable
        let view = Expr::lt(Expr::col("book", "price"), Expr::lit(Value::Double(50.0)));
        let upd = Expr::lt(Expr::col("book", "price"), Expr::lit(Value::Double(40.0)));
        assert!(overlap(&view, &upd));
    }

    #[test]
    fn equality_pin_respects_range() {
        let mut c = Conjunction::new();
        c.add_atom(&price(), CmpOp::Lt, &Value::Double(50.0));
        c.add_atom(&price(), CmpOp::Eq, &Value::Double(48.0));
        assert!(c.satisfiable());
        c.add_atom(&price(), CmpOp::Eq, &Value::Double(52.0));
        assert!(!c.satisfiable());
    }

    #[test]
    fn boundary_exclusivity() {
        let mut c = Conjunction::new();
        c.add_atom(&price(), CmpOp::Ge, &Value::Double(50.0));
        c.add_atom(&price(), CmpOp::Le, &Value::Double(50.0));
        assert!(c.satisfiable()); // pinned to exactly 50
        c.add_atom(&price(), CmpOp::Ne, &Value::Double(50.0));
        assert!(!c.satisfiable());
    }

    #[test]
    fn integral_gap_detection() {
        let year = ColRef::new("book", "year");
        let mut c = Conjunction::new();
        c.hint(&year, DataType::Date);
        c.add_atom(&year, CmpOp::Gt, &Value::Int(1990));
        c.add_atom(&year, CmpOp::Lt, &Value::Int(1991));
        assert!(!c.satisfiable());
        // Over doubles the same bounds are satisfiable.
        let mut d = Conjunction::new();
        d.add_atom(&price(), CmpOp::Gt, &Value::Double(1990.0));
        d.add_atom(&price(), CmpOp::Lt, &Value::Double(1991.0));
        assert!(d.satisfiable());
    }

    #[test]
    fn string_ranges() {
        let t = ColRef::new("book", "title");
        let mut c = Conjunction::new();
        c.add_atom(&t, CmpOp::Eq, &Value::str("Data on the Web"));
        c.add_atom(&t, CmpOp::Ne, &Value::str("Data on the Web"));
        assert!(!c.satisfiable());
    }

    #[test]
    fn independent_columns() {
        let mut c = Conjunction::new();
        c.add_atom(&price(), CmpOp::Lt, &Value::Double(50.0));
        c.add_atom(&ColRef::new("book", "year"), CmpOp::Gt, &Value::Int(1990));
        assert!(c.satisfiable());
    }

    #[test]
    fn contains_checks_point_membership() {
        let mut d = Domain::default();
        d.constrain(CmpOp::Gt, &Value::Double(0.0));
        d.constrain(CmpOp::Lt, &Value::Double(50.0));
        assert!(d.contains(&Value::Double(37.0)));
        assert!(!d.contains(&Value::Double(0.0)));
        assert!(!d.contains(&Value::Double(50.0)));
        assert!(!d.contains(&Value::Null));
    }
}
