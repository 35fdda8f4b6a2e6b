//! Dynamically typed SQL-style values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    /// Days since 1970-01-01 (proleptic Gregorian).
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// A single SQL-style value.
///
/// `Null` is a first-class member of the domain: outer joins null-extend
/// tuples, and view rows routinely carry nulls in the columns of tables they
/// are null-extended on. Comparison follows a total order with `Null` sorting
/// first, which is used for keys and sorting — *predicate* evaluation treats
/// nulls separately (all the paper's predicates are null-rejecting).
#[derive(Debug, Clone)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Datum {
    /// Convenience constructor for string datums.
    pub fn str(s: impl AsRef<str>) -> Self {
        Datum::Str(Arc::from(s.as_ref()))
    }

    /// True iff this value is `NULL`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The datum's runtime type, or `None` for `NULL`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Bool(_) => Some(DataType::Bool),
            Datum::Int(_) => Some(DataType::Int),
            Datum::Float(_) => Some(DataType::Float),
            Datum::Str(_) => Some(DataType::Str),
            Datum::Date(_) => Some(DataType::Date),
        }
    }

    /// Extract an integer, panicking on type mismatch. Plans are type-checked
    /// before execution, so a mismatch here is a planner bug.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a float (also accepts ints, widening).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a date (days since epoch).
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Datum::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Rank used to order datums of different variants (`Null` first).
    fn variant_rank(&self) -> u8 {
        match self {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 2,
            Datum::Float(_) => 3,
            Datum::Str(_) => 4,
            Datum::Date(_) => 5,
        }
    }

    /// SQL-style three-valued comparison: `None` if either side is `NULL`.
    ///
    /// Numeric variants compare across `Int`/`Float`.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Float(a), Datum::Float(b)) => Some(total_f64_cmp(*a, *b)),
            (Datum::Int(a), Datum::Float(b)) => Some(cmp_int_float(*a, *b)),
            (Datum::Float(a), Datum::Int(b)) => Some(cmp_int_float(*b, *a).reverse()),
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            (Datum::Str(a), Datum::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Datum::Date(a), Datum::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL equality: `None` (unknown) if either side is `NULL`.
    pub fn sql_eq(&self, other: &Datum) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }
}

/// A borrowed view of a [`Datum`] — the unit columnar storage hands out.
///
/// Column-major pages cannot return `&Datum` (no `Datum` exists in memory;
/// values live in typed column vectors), so readers get this by-value view
/// instead: scalar variants are copied, strings are borrowed. Equality,
/// ordering, and hashing mirror [`Datum`] *exactly* — in particular
/// `Int`/`Float` cross-type equality and the hash through the float bit
/// pattern — so a `DatumRef` key probe hits the same buckets an owned
/// `Datum` key occupies.
#[derive(Debug, Clone, Copy)]
pub enum DatumRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
    /// Days since 1970-01-01.
    Date(i32),
}

impl<'a> DatumRef<'a> {
    /// True iff this value is `NULL`.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, DatumRef::Null)
    }

    /// SQL-style three-valued comparison; mirrors [`Datum::sql_cmp`].
    pub fn sql_cmp(self, other: DatumRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (DatumRef::Null, _) | (_, DatumRef::Null) => None,
            (DatumRef::Int(a), DatumRef::Int(b)) => Some(a.cmp(&b)),
            (DatumRef::Float(a), DatumRef::Float(b)) => Some(total_f64_cmp(a, b)),
            (DatumRef::Int(a), DatumRef::Float(b)) => Some(cmp_int_float(a, b)),
            (DatumRef::Float(a), DatumRef::Int(b)) => Some(cmp_int_float(b, a).reverse()),
            (DatumRef::Bool(a), DatumRef::Bool(b)) => Some(a.cmp(&b)),
            (DatumRef::Str(a), DatumRef::Str(b)) => Some(a.cmp(b)),
            (DatumRef::Date(a), DatumRef::Date(b)) => Some(a.cmp(&b)),
            _ => None,
        }
    }

    /// [`Self::sql_cmp`] against an owned datum without materializing.
    #[inline]
    pub fn sql_cmp_datum(self, other: &Datum) -> Option<Ordering> {
        self.sql_cmp(other.as_ref())
    }

    fn variant_rank(self) -> u8 {
        match self {
            DatumRef::Null => 0,
            DatumRef::Bool(_) => 1,
            DatumRef::Int(_) => 2,
            DatumRef::Float(_) => 3,
            DatumRef::Str(_) => 4,
            DatumRef::Date(_) => 5,
        }
    }

    /// Total order mirroring [`Datum`]'s `Ord` (`NULL` first, numeric
    /// cross-type comparison, then variant rank).
    pub fn total_cmp(self, other: DatumRef<'_>) -> Ordering {
        match (self, other) {
            (DatumRef::Null, DatumRef::Null) => Ordering::Equal,
            (DatumRef::Int(a), DatumRef::Float(b)) => cmp_int_float(a, b),
            (DatumRef::Float(a), DatumRef::Int(b)) => cmp_int_float(b, a).reverse(),
            _ => match self.variant_rank().cmp(&other.variant_rank()) {
                Ordering::Equal => match (self, other) {
                    (DatumRef::Bool(a), DatumRef::Bool(b)) => a.cmp(&b),
                    (DatumRef::Int(a), DatumRef::Int(b)) => a.cmp(&b),
                    (DatumRef::Float(a), DatumRef::Float(b)) => total_f64_cmp(a, b),
                    (DatumRef::Str(a), DatumRef::Str(b)) => a.cmp(b),
                    (DatumRef::Date(a), DatumRef::Date(b)) => a.cmp(&b),
                    _ => unreachable!("equal variant ranks imply equal variants"),
                },
                o => o,
            },
        }
    }
}

impl PartialEq for DatumRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(*other) == Ordering::Equal
    }
}

impl Eq for DatumRef<'_> {}

impl PartialEq<Datum> for DatumRef<'_> {
    fn eq(&self, other: &Datum) -> bool {
        *self == other.as_ref()
    }
}

impl Hash for DatumRef<'_> {
    /// Byte-for-byte the same hash stream as [`Datum`]'s `Hash` impl, so
    /// borrowed probes can hit maps keyed by owned datums.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            DatumRef::Null => state.write_u8(0),
            DatumRef::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            DatumRef::Int(v) => {
                state.write_u8(2);
                state.write_u64((*v as f64).to_bits());
            }
            DatumRef::Float(v) => {
                state.write_u8(2);
                state.write_u64(v.to_bits());
            }
            DatumRef::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            DatumRef::Date(d) => {
                state.write_u8(5);
                d.hash(state);
            }
        }
    }
}

impl Datum {
    /// Borrow this datum as a [`DatumRef`].
    #[inline]
    pub fn as_ref(&self) -> DatumRef<'_> {
        match self {
            Datum::Null => DatumRef::Null,
            Datum::Bool(b) => DatumRef::Bool(*b),
            Datum::Int(v) => DatumRef::Int(*v),
            Datum::Float(v) => DatumRef::Float(*v),
            Datum::Str(s) => DatumRef::Str(s),
            Datum::Date(d) => DatumRef::Date(*d),
        }
    }
}

fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// Exact comparison of an `i64` with an `f64`.
///
/// Converting the integer with `as f64` rounds above 2^53 and would make
/// `Eq` non-transitive (`Int(2^53+1)` would equal `Float(2^53)`), so the
/// comparison goes through the float's integral part instead. NaN sorts on
/// the side `total_cmp` puts it (after all numbers for positive NaN, before
/// for negative), keeping the total order consistent.
fn cmp_int_float(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        return if b.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    // Beyond i64's range the answer is determined by sign.
    if b >= 9.3e18 {
        return Ordering::Less;
    }
    if b <= -9.3e18 {
        return Ordering::Greater;
    }
    let floor = b.floor();
    match a.cmp(&(floor as i64)) {
        Ordering::Equal => {
            if b > floor {
                Ordering::Less
            } else {
                Ordering::Equal
            }
        }
        other => other,
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    /// Total order used for keys and sorting: `NULL` sorts first; numeric
    /// variants compare by value across `Int`/`Float`; otherwise variants are
    /// ordered by rank.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Datum::Null, Datum::Null) => Ordering::Equal,
            (Datum::Int(a), Datum::Float(b)) => cmp_int_float(*a, *b),
            (Datum::Float(a), Datum::Int(b)) => cmp_int_float(*b, *a).reverse(),
            _ => match self.variant_rank().cmp(&other.variant_rank()) {
                Ordering::Equal => match (self, other) {
                    (Datum::Bool(a), Datum::Bool(b)) => a.cmp(b),
                    (Datum::Int(a), Datum::Int(b)) => a.cmp(b),
                    (Datum::Float(a), Datum::Float(b)) => total_f64_cmp(*a, *b),
                    (Datum::Str(a), Datum::Str(b)) => a.as_ref().cmp(b.as_ref()),
                    (Datum::Date(a), Datum::Date(b)) => a.cmp(b),
                    _ => unreachable!("equal variant ranks imply equal variants"),
                },
                o => o,
            },
        }
    }
}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Datum::Null => state.write_u8(0),
            Datum::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equally; hash both
            // through the float bit pattern when the int is exactly
            // representable, which covers every key value we generate.
            Datum::Int(v) => {
                state.write_u8(2);
                state.write_u64((*v as f64).to_bits());
            }
            Datum::Float(v) => {
                state.write_u8(2);
                state.write_u64(v.to_bits());
            }
            Datum::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
            Datum::Date(d) => {
                state.write_u8(5);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => f.write_str("NULL"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v:.2}"),
            Datum::Str(s) => write!(f, "'{s}'"),
            Datum::Date(d) => {
                let (y, m, day) = date_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}

impl From<i32> for Datum {
    fn from(v: i32) -> Self {
        Datum::Int(v as i64)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}

impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::str(v)
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Str(Arc::from(v.as_str()))
    }
}

/// Convert a `(year, month, day)` triple into days since 1970-01-01.
///
/// Valid for the proleptic Gregorian calendar; used by the TPC-H generator
/// and by tests to express the paper's date-range predicates.
pub fn days_from_date(year: i32, month: u32, day: u32) -> i32 {
    // Algorithm from Howard Hinnant's `days_from_civil`.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let mp = ((month + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146_097 + doe - 719_468) as i32
}

/// Inverse of [`days_from_date`].
pub fn date_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = if m <= 2 { y + 1 } else { y } as i32;
    (year, m, d)
}

/// Parse `"YYYY-MM-DD"` into a [`Datum::Date`]. Panics on malformed input;
/// intended for literals in tests and workload definitions.
pub fn date(s: &str) -> Datum {
    let mut parts = s.splitn(3, '-');
    let y: i32 = parts.next().expect("year").parse().expect("year");
    let m: u32 = parts.next().expect("month").parse().expect("month");
    let d: u32 = parts.next().expect("day").parse().expect("day");
    Datum::Date(days_from_date(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null() {
        assert!(Datum::Null.is_null());
        assert!(!Datum::Int(0).is_null());
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), None);
        assert_eq!(Datum::Null.sql_eq(&Datum::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_order_null_first() {
        let mut v = vec![Datum::Int(3), Datum::Null, Datum::Int(1)];
        v.sort();
        assert_eq!(v, vec![Datum::Null, Datum::Int(1), Datum::Int(3)]);
    }

    #[test]
    fn eq_and_hash_agree_for_int_float() {
        use std::collections::hash_map::DefaultHasher;
        let a = Datum::Int(7);
        let b = Datum::Float(7.0);
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn huge_int_float_comparison_is_exact() {
        let big = (1i64 << 53) + 1;
        let as_float = Datum::Float((1u64 << 53) as f64);
        // `big as f64` would round down to 2^53; exact comparison must not.
        assert_ne!(Datum::Int(big), as_float.clone());
        assert_eq!(Datum::Int(1 << 53), as_float);
        assert_eq!(Datum::Int(big).cmp(&as_float), std::cmp::Ordering::Greater);
        // Transitivity probe: a == b and b == c implies a == c.
        let a = Datum::Int(1 << 53);
        let b = Datum::Float((1u64 << 53) as f64);
        let c = Datum::Int(1 << 53);
        assert!(a == b && b == c && a == c);
        // Fractional floats compare strictly between neighbours.
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Float(2.5)),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(
            Datum::Int(3).sql_cmp(&Datum::Float(2.5)),
            Some(std::cmp::Ordering::Greater)
        );
        // Out-of-range floats resolve by sign.
        assert_eq!(
            Datum::Int(i64::MAX).sql_cmp(&Datum::Float(1e19)),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(
            Datum::Int(i64::MIN).sql_cmp(&Datum::Float(-1e19)),
            Some(std::cmp::Ordering::Greater)
        );
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (1994, 6, 1), (1998, 12, 31), (2000, 2, 29)] {
            let days = days_from_date(y, m, d);
            assert_eq!(date_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_date(1970, 1, 1), 0);
    }

    #[test]
    fn date_parse_and_display() {
        let d = date("1994-06-01");
        assert_eq!(format!("{d}"), "1994-06-01");
        assert!(date("1994-06-01").sql_cmp(&date("1994-12-31")).unwrap() == Ordering::Less);
    }

    #[test]
    fn string_datum_display_quotes() {
        assert_eq!(format!("{}", Datum::str("abc")), "'abc'");
    }

    #[test]
    fn data_type_of_null_is_none() {
        assert_eq!(Datum::Null.data_type(), None);
        assert_eq!(Datum::Int(1).data_type(), Some(DataType::Int));
    }

    /// Every `DatumRef` must hash to exactly the bytes its owned twin
    /// hashes to — columnar probes rely on hitting owned-key buckets.
    #[test]
    fn datum_ref_hash_and_eq_parity() {
        use crate::fxhash::fx_hash_one;
        let samples = vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Bool(false),
            Datum::Int(0),
            Datum::Int(-7),
            Datum::Int(1 << 53),
            Datum::Float(2.5),
            Datum::Float(-0.0),
            Datum::Float(f64::NAN),
            Datum::str(""),
            Datum::str("hello"),
            Datum::Date(9131),
        ];
        for a in &samples {
            assert_eq!(fx_hash_one(a), fx_hash_one(&a.as_ref()), "{a:?}");
            for b in &samples {
                assert_eq!(a == b, a.as_ref() == b.as_ref(), "{a:?} vs {b:?}");
                assert_eq!(a.cmp(b), a.as_ref().total_cmp(b.as_ref()), "{a:?} vs {b:?}");
                assert_eq!(
                    a.sql_cmp(b),
                    a.as_ref().sql_cmp(b.as_ref()),
                    "{a:?} vs {b:?}"
                );
            }
        }
        // Cross-type Int/Float equality carries over.
        assert_eq!(DatumRef::Int(2), DatumRef::Float(2.0));
        assert_eq!(DatumRef::Int(2), Datum::Float(2.0));
    }
}
