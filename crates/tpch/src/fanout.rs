//! Many-view catalog generator: the fan-out workload the relevance index
//! is measured on.
//!
//! [`many_views`] emits `n` parameterized views over the shared TPC-H
//! relations, cycling three families so every pruning level of
//! `ufilter-route` has something to bite on:
//!
//! * `cust_p<i>` — customer→order→lineitem nesting over a customer-key
//!   range partition. Updates naming `<region>`/`<nation>` prune at the
//!   **tag** level; updates binding `<order>` at the root prune at the
//!   **path** level; a `c_custkey = k` predicate prunes every partition
//!   whose range excludes `k` at the **predicate** level.
//! * `ord_p<i>` — order→lineitem nesting partitioned by `o_orderkey`.
//! * `geo_p<i>` — region→nation nesting partitioned by `n_nationkey`.
//!
//! [`fanout_stream`] generates the matching update mix: every update
//! addresses one family by shape and one partition by key, so with `n`
//! views registered the truly relevant set is ~1 and a sound router prunes
//! ~`(n-1)/n` of the catalog.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::Scale;

/// Integer range partition `i` of `n` over key space `0..universe`
/// (half-open; `width >= 1`, so every partition is non-empty and the
/// first `n` partitions cover the space).
fn partition(i: usize, n: usize, universe: usize) -> (usize, usize) {
    let width = universe.div_ceil(n).max(1);
    (i * width, (i + 1) * width)
}

/// The `cust_p<i>` family: customer subtree over a `c_custkey` partition.
fn cust_view(lo: usize, hi: usize) -> String {
    format!(
        r#"<Vcust>
FOR $c IN document("default.xml")/customer/row
WHERE $c/c_custkey >= {lo} AND $c/c_custkey < {hi}
RETURN {{
<customer>
$c/c_custkey, $c/c_name, $c/c_acctbal,
FOR $o IN document("default.xml")/orders/row
WHERE $o/o_custkey = $c/c_custkey
RETURN {{
<order>
$o/o_orderkey, $o/o_totalprice,
FOR $l IN document("default.xml")/lineitem/row
WHERE $l/l_orderkey = $o/o_orderkey
RETURN {{
<lineitem>
$l/l_linenumber, $l/l_quantity
</lineitem>}}
</order>}}
</customer>}}
</Vcust>"#
    )
}

/// The `ord_p<i>` family: order subtree over an `o_orderkey` partition.
fn ord_view(lo: usize, hi: usize) -> String {
    format!(
        r#"<Vord>
FOR $o IN document("default.xml")/orders/row
WHERE $o/o_orderkey >= {lo} AND $o/o_orderkey < {hi}
RETURN {{
<order>
$o/o_orderkey, $o/o_totalprice,
FOR $l IN document("default.xml")/lineitem/row
WHERE $l/l_orderkey = $o/o_orderkey
RETURN {{
<lineitem>
$l/l_linenumber, $l/l_quantity, $l/l_extendedprice
</lineitem>}}
</order>}}
</Vord>"#
    )
}

/// The `geo_p<i>` family: region→nation over an `n_nationkey` partition.
fn geo_view(lo: usize, hi: usize) -> String {
    format!(
        r#"<Vgeo>
FOR $r IN document("default.xml")/region/row
RETURN {{
<region>
$r/r_regionkey, $r/r_name,
FOR $n IN document("default.xml")/nation/row
WHERE $n/n_regionkey = $r/r_regionkey AND $n/n_nationkey >= {lo} AND $n/n_nationkey < {hi}
RETURN {{
<nation>
$n/n_nationkey, $n/n_name
</nation>}}
</region>}}
</Vgeo>"#
    )
}

/// Generate `n` registerable `(name, view text)` pairs over the shared
/// TPC-H relations for a database of `scale`. Names sort stably
/// (`cust_p000…`, `geo_p000…`, `ord_p000…`); every view compiles under the
/// ASG builder and every partition family covers its whole key space, so
/// any in-range update key has exactly one relevant partition per family.
pub fn many_views(n: usize, scale: Scale) -> Vec<(String, String)> {
    let [(cust_n, customers), (ord_n, n_orders), (geo_n, nations)] = families(n, scale);
    let mut out = Vec::with_capacity(n);
    for i in 0..cust_n {
        let (lo, hi) = partition(i, cust_n, customers);
        out.push((format!("cust_p{i:03}"), cust_view(lo, hi)));
    }
    for i in 0..ord_n {
        let (lo, hi) = partition(i, ord_n, n_orders);
        out.push((format!("ord_p{i:03}"), ord_view(lo, hi)));
    }
    for i in 0..geo_n {
        let (lo, hi) = partition(i, geo_n, nations);
        out.push((format!("geo_p{i:03}"), geo_view(lo, hi)));
    }
    out
}

/// `(partitions, key universe)` of the cust, ord and geo families of an
/// `n`-view [`many_views`] catalog: half customer partitions, a third
/// order partitions, the rest geo — at least one of each once n ≥ 3.
fn families(n: usize, scale: Scale) -> [(usize, usize); 3] {
    let cust_n = (n / 2).max(1);
    let ord_n = (n / 3).max(usize::from(n > 1));
    let geo_n = n.saturating_sub(cust_n + ord_n);
    let n_orders = scale.customers * scale.orders_per_customer;
    [(cust_n, scale.customers.max(1)), (ord_n, n_orders.max(1)), (geo_n, 25)]
}

/// One update per family of an `n`-view [`many_views`] catalog, keyed at
/// the low end of the family's last partition: the top of each key range,
/// which [`fanout_stream`]'s keys (drawn from the database's key space)
/// rarely reach once partitions outnumber keys.
pub fn top_partition_updates(n: usize, scale: Scale) -> Vec<String> {
    let shapes: [fn(i64) -> String; 3] = [
        fanout_updates::delete_customer_orders,
        fanout_updates::delete_order_lineitems,
        fanout_updates::delete_nation,
    ];
    (families(n, scale).into_iter().zip(shapes))
        .filter(|((parts, _), _)| *parts > 0)
        .map(|((parts, universe), shape)| shape(partition(parts - 1, parts, universe).0 as i64))
        .collect()
}

/// Update texts addressing the [`many_views`] catalog by shape and key.
pub mod fanout_updates {
    /// Delete the orders of one customer (relevant to one `cust_p`).
    pub fn delete_customer_orders(custkey: i64) -> String {
        format!(
            r#"FOR $c IN document("V.xml")/customer
WHERE $c/c_custkey/text() = "{custkey}"
UPDATE $c {{ DELETE $c/order }}"#
        )
    }

    /// Delete the lineitems of one order (relevant to one `ord_p`).
    pub fn delete_order_lineitems(orderkey: i64) -> String {
        format!(
            r#"FOR $o IN document("V.xml")/order
WHERE $o/o_orderkey/text() = "{orderkey}"
UPDATE $o {{ DELETE $o/lineitem }}"#
        )
    }

    /// Insert a lineitem into one order (relevant to one `ord_p`).
    pub fn insert_order_lineitem(orderkey: i64, linenumber: i64) -> String {
        format!(
            r#"FOR $o IN document("V.xml")/order
WHERE $o/o_orderkey/text() = "{orderkey}"
UPDATE $o {{
INSERT
<lineitem>
<l_linenumber>{linenumber}</l_linenumber>
<l_quantity>3</l_quantity>
<l_extendedprice>99.00</l_extendedprice>
</lineitem>}}"#
        )
    }

    /// Delete one nation element (relevant to one `geo_p`).
    pub fn delete_nation(nationkey: i64) -> String {
        format!(
            r#"FOR $r IN document("V.xml")/region, $n IN $r/nation
WHERE $n/n_nationkey/text() = "{nationkey}"
UPDATE $r {{ DELETE $n }}"#
        )
    }
}

/// A deterministic stream of `len` fan-out updates for a database of
/// `scale`: a mix of the four [`fanout_updates`] shapes with keys drawn
/// uniformly from each family's key space.
pub fn fanout_stream(len: usize, scale: Scale, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_orders = (scale.customers * scale.orders_per_customer).max(1) as i64;
    let customers = scale.customers.max(1) as i64;
    (0..len)
        .map(|_| match rng.gen_range(0..4) {
            0 => fanout_updates::delete_customer_orders(rng.gen_range(0..customers)),
            1 => fanout_updates::delete_order_lineitems(rng.gen_range(0..n_orders)),
            2 => fanout_updates::insert_order_lineitem(
                rng.gen_range(0..n_orders),
                1000 + rng.gen_range(0..1000i64),
            ),
            _ => fanout_updates::delete_nation(rng.gen_range(0..25)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_views_generates_requested_count_with_unique_sorted_names() {
        for n in [1, 3, 10, 25, 100] {
            let views = many_views(n, Scale::tiny());
            assert_eq!(views.len(), n, "n={n}");
            let mut names: Vec<&String> = views.iter().map(|(n, _)| n).collect();
            let before = names.clone();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), n, "duplicate names at n={n}");
            let _ = before;
        }
    }

    #[test]
    fn partitions_cover_the_key_space() {
        for n in [1, 3, 7] {
            let mut covered = vec![false; 25];
            for i in 0..n {
                let (lo, hi) = partition(i, n, 25);
                covered[lo..hi.min(25)].iter_mut().for_each(|c| *c = true);
            }
            assert!(covered.into_iter().all(|c| c), "gap with {n} partitions");
        }
    }

    #[test]
    fn top_partition_updates_key_each_familys_last_partition() {
        // 10,000 views over the tiny scale: 5,000 cust partitions over 12
        // customers, 3,333 ord partitions over 36 orders, 1,667 geo
        // partitions over 25 nations — every partition one key wide.
        let updates = top_partition_updates(10_000, Scale::tiny());
        assert_eq!(updates.len(), 3);
        assert!(updates[0].contains(r#"c_custkey/text() = "4999""#), "{}", updates[0]);
        assert!(updates[1].contains(r#"o_orderkey/text() = "3332""#), "{}", updates[1]);
        assert!(updates[2].contains(r#"n_nationkey/text() = "1666""#), "{}", updates[2]);
        assert_eq!(top_partition_updates(1, Scale::tiny()).len(), 1, "one cust view only");
    }

    #[test]
    fn fanout_stream_is_deterministic() {
        let a = fanout_stream(40, Scale::tiny(), 7);
        let b = fanout_stream(40, Scale::tiny(), 7);
        assert_eq!(a, b);
        assert_ne!(a, fanout_stream(40, Scale::tiny(), 8));
    }
}
