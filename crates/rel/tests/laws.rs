//! Property-based tests for the value laws every operator relies on: the
//! `Datum` total order agrees with hashing, and the borrowed comparison
//! every predicate runs through (`DatumRef::sql_cmp` / `sql_cmp_datum`) is
//! exactly the owned `Datum::sql_cmp`.
//!
//! The §2.1 laws of `↓` and `⊕` are checked against the engine's one
//! implementation, `ojv-exec`'s `ops::clean_dup_buf`, in that crate's
//! `tests/laws.rs`.

use ojv_testkit::{property, strategy, vec_of, Rng, Strategy};

use ojv_rel::Datum;

/// Rows over a tiny domain with plenty of nulls.
fn row_strategy(width: usize) -> impl Strategy<Value = Vec<Datum>> {
    vec_of(
        strategy(
            |rng: &mut Rng| {
                if rng.gen_bool(0.5) {
                    Datum::Null
                } else {
                    Datum::Int(rng.gen_range(0i64..3))
                }
            },
            |d: &Datum| match d {
                Datum::Int(n) if *n > 0 => vec![Datum::Null, Datum::Int(n - 1)],
                Datum::Int(_) => vec![Datum::Null],
                _ => Vec::new(),
            },
        ),
        width..width + 1,
    )
}

/// Every variant, weighted toward the comparison corners: `Null`, `Int`s
/// and `Float`s drawn from one small numeric domain (so cross-type ties
/// happen), NaN, ±0.0, ±∞, and short strings, dates and bools that collide
/// often.
fn cmp_datum() -> impl Strategy<Value = Datum> {
    strategy(
        |rng: &mut Rng| match rng.gen_range(0u32..10) {
            0 => Datum::Null,
            1 => Datum::Bool(rng.gen_bool(0.5)),
            2 | 3 => Datum::Int(rng.gen_range(-2i64..3)),
            4 => Datum::Int(rng.next_u64() as i64),
            5 => Datum::Float(rng.gen_range(-4i64..5) as f64 / 2.0),
            6 => Datum::Float(
                [
                    f64::NAN,
                    -f64::NAN,
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ][rng.gen_range(0usize..6)],
            ),
            7 => Datum::str(["", "a", "ab", "b"][rng.gen_range(0usize..4)]),
            8 => Datum::Date(rng.gen_range(-1i32..2)),
            _ => Datum::Float(f64::from_bits(rng.next_u64())),
        },
        |d: &Datum| {
            if d.is_null() {
                Vec::new()
            } else {
                vec![Datum::Null]
            }
        },
    )
}

property! {
    /// Datum total order: antisymmetric and transitive over a mixed domain,
    /// and hashing agrees with equality.
    #[cases = 256]
    fn datum_order_and_hash_consistent(a in row_strategy(1), b in row_strategy(1)) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let (x, y) = (&a[0], &b[0]);
        if x == y {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            x.hash(&mut ha);
            y.hash(&mut hb);
            assert_eq!(ha.finish(), hb.finish());
            assert_eq!(x.cmp(y), std::cmp::Ordering::Equal);
        }
        assert_eq!(x.cmp(y), y.cmp(x).reverse());
    }

    /// Every predicate compares through `DatumRef`; its three-valued
    /// comparison must be `Datum::sql_cmp` on every pair, in both argument
    /// orders, borrowed on one side or both.
    #[cases = 512]
    fn datum_ref_sql_cmp_matches_datum(a in cmp_datum(), b in cmp_datum()) {
        let owned = a.sql_cmp(&b);
        assert_eq!(a.as_ref().sql_cmp(b.as_ref()), owned, "{a:?} vs {b:?}");
        assert_eq!(a.as_ref().sql_cmp_datum(&b), owned, "{a:?} vs {b:?}");
        assert_eq!(b.as_ref().sql_cmp_datum(&a), b.sql_cmp(&a), "{b:?} vs {a:?}");
    }
}
