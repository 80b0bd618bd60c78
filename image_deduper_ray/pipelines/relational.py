"""Relational scan-aggregates over the TPC-H-ish tables.

The lineitem pricing summary is the canonical partial-aggregation
benchmark shape (TPC-H Q1): a predicate-pruned scan of the biggest
table, per-batch combiner aggregation down to a handful of
(returnflag, linestatus) groups, and one tiny final merge — no wide
shuffle at any scale, because the combiner output is O(groups) per
block regardless of input size.

Money columns are summed as exact integers (cents / basis points, the
same ``floor(x * scale + 0.5)`` rule on both engine and oracle side) so
the result is bit-stable under any summation order — distributed
float SUM would differ from the oracle's at the ULP level.

Reference analog: the per-batch counter rollup of process_batches
(/root/reference/crates/image-deduper-core/src/lib.rs:131-259) — many
workers emit partial counts, one final merge.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.groups import group_starts, partitioned_group_map


def _collect_i64(ds: ray.data.Dataset, cols: list[str],
                 max_bytes: int) -> list[np.ndarray] | None:
    """``cols`` of a small dimension as driver-side int64 arrays, or
    ``None`` past ``max_bytes`` (``functions/joins.collect_under_cap``)."""
    from ..functions.joins import collect_under_cap

    t = collect_under_cap(ds.select_columns(cols), max_bytes)
    if t is None:
        return None
    if t.num_rows == 0:
        return [np.empty(0, np.int64) for _ in cols]
    return [t[c].to_numpy().astype(np.int64) for c in cols]

PRICING_CUTOFF = "1998-09-02"


def pricing_summary(sf_dir: str, cutoff: str = PRICING_CUTOFF,
                    ) -> ray.data.Dataset:
    """(l_returnflag, l_linestatus, sum_qty, sum_base_cents, sum_disc_bp,
    n_rows) for lineitems shipped at or before ``cutoff``.

    The shipdate predicate is pushed into the Parquet read (row-group
    pruning — untouched ranges never leave storage); only the six
    needed columns are scanned."""
    import datetime

    cut = datetime.datetime.fromisoformat(cutoff)
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pc.field("l_shipdate") <= pc.scalar(cut)))

    out_schema = pa.schema([
        ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
        ("sum_qty", pa.int64()), ("sum_base_cents", pa.int64()),
        ("sum_disc_bp", pa.int64()), ("n_rows", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        # belt-and-braces re-filter: the pushdown prunes row groups, the
        # residual predicate must still hold row-exactly
        mask = pc.less_equal(t["l_shipdate"], pa.scalar(cut)).combine_chunks()
        t = t.filter(mask)
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pd.DataFrame({
            "l_returnflag": t["l_returnflag"].to_numpy(zero_copy_only=False),
            "l_linestatus": t["l_linestatus"].to_numpy(zero_copy_only=False),
            # exact integer money: floor(x*scale + 0.5), the same rule as
            # the SQL oracle (and j_orders_by_segment's precedent)
            "qty": t["l_quantity"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "cents": np.floor(t["l_extendedprice"]
                              .to_numpy(zero_copy_only=False) * 100 + 0.5)
            .astype(np.int64),
            "bp": np.floor(t["l_discount"]
                           .to_numpy(zero_copy_only=False) * 10000 + 0.5)
            .astype(np.int64)})
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("qty", "sum"), sum_base_cents=("cents", "sum"),
            sum_disc_bp=("bp", "sum"), n_rows=("qty", "size"))
        g = g.reset_index()
        return pa.Table.from_pandas(g, schema=out_schema,
                                    preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        cols = ["sum_qty", "sum_base_cents", "sum_disc_bp", "n_rows"]
        if df.empty:
            return pd.DataFrame({"l_returnflag": pd.Series([], dtype=object),
                                 "l_linestatus": pd.Series([], dtype=object),
                                 **{c: pd.Series([], dtype=np.int64)
                                    for c in cols}})
        df = df.sort_values(["l_returnflag", "l_linestatus"],
                            kind="mergesort")
        rf = df["l_returnflag"].to_numpy()
        ls = df["l_linestatus"].to_numpy()
        starts = np.flatnonzero(group_starts(rf, ls))
        out = {"l_returnflag": rf[starts], "l_linestatus": ls[starts]}
        for c in cols:
            out[c] = np.add.reduceat(df[c].to_numpy(np.int64), starts)
        return pd.DataFrame(out)

    # final merge input is O(groups x blocks) partial rows — tiny
    return partitioned_group_map(partials,
                                 ["l_returnflag", "l_linestatus"],
                                 merge, 4, out_schema=out_schema)


Q3_CUTOFF = "1997-06-30"


def shipping_priority(sf_dir: str, segment: str = "BUILDING",
                      cutoff: str = Q3_CUTOFF,
                      limit: int = 10,
                      cust_broadcast_max: int = 64 << 20
                      ) -> ray.data.Dataset:
    """(l_orderkey, revenue_cents, o_orderdate, rank) — the TPC-H Q3
    shape over three tables: customers of one market segment, their
    orders placed BEFORE ``cutoff``, lineitems shipped AFTER it,
    revenue = sum(extprice * (1 - discount)) as exact integer cents,
    global top-``limit`` by (revenue desc, orderkey) with NO global
    sort (per-block top-N partials + one tiny final rank).

    Scale shape: the customer dimension is small by nature — its
    in-segment custkeys broadcast as one sorted numpy array (byte-
    capped, loud failure past the cap); the orders stream filters
    against it and its (orderkey -> epoch-day) pairs attach to the big
    lineitem stream via the byte-capped zero-copy broadcast with the
    partitioned hash-join fallback (``broadcast_join``) — the
    fact table never shuffles below the cap."""
    import datetime

    from ..functions.joins import broadcast_join

    cut = datetime.datetime.fromisoformat(cutoff)

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
        filter=(pc.field("c_mktsegment") == segment))
    # the repo convention (pricing_summary): the pushdown prunes row
    # groups, the residual predicate must still hold row-exactly
    cust = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"],
                                    segment).combine_chunks()),
        batch_format="pyarrow", zero_copy_batch=True)
    collected = _collect_i64(cust, ["c_custkey"],
                                      cust_broadcast_bytes := cust_broadcast_max)
    if collected is None:
        raise ValueError(
            "in-segment customer key set exceeds the broadcast budget "
            f"({cust_broadcast_bytes} B); raise cust_broadcast_max")
    import ray as _ray
    ckeys = np.sort(collected[0])
    ckeys_ref = _ray.put(ckeys)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pc.field("o_orderdate") < pc.scalar(cut)))

    def order_days(t: pa.Table) -> pa.Table:
        empty = pa.table({"o_orderkey": pa.array([], pa.int64()),
                          "odays": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        # residual re-filter, same convention as above
        t = t.filter(pc.less(t["o_orderdate"], pa.scalar(cut))
                     .combine_chunks())
        if t.num_rows == 0:
            return empty
        ck = ray.get(ckeys_ref)
        custs = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(ck) == 0:
            return empty
        pos = np.searchsorted(ck, custs).clip(0, len(ck) - 1)
        t = t.filter(pa.array(ck[pos] == custs))
        if t.num_rows == 0:
            return empty
        us = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "o_orderkey": t["o_orderkey"].cast(pa.int64()),
            "odays": pa.array(us // 86_400_000_000)})

    okeys = orders.map_batches(order_days, batch_format="pyarrow",
                               zero_copy_batch=True)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=(pc.field("l_shipdate") > pc.scalar(cut)))

    def line_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"l_orderkey": pa.array([], pa.int64()),
                          "cents": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        mask = pc.greater(t["l_shipdate"], pa.scalar(cut)).combine_chunks()
        t = t.filter(mask)
        if t.num_rows == 0:
            return empty
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(ep * (1 - dc) * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64), "cents": cents})
        g = df.groupby("l_orderkey", sort=False)["cents"].sum() \
            .reset_index()
        return pa.table({"l_orderkey": pa.array(g["l_orderkey"]
                                                .to_numpy(np.int64)),
                         "cents": pa.array(g["cents"]
                                           .to_numpy(np.int64))})

    partials = line.map_batches(line_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    attached = broadcast_join(partials, okeys, "l_orderkey", "o_orderkey",
                              "left")

    sum_schema = pa.schema([("l_orderkey", pa.int64()),
                            ("odays", pa.int64()),
                            ("cents", pa.int64())])

    def sum_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=["odays"])   # no in-segment pre-cutoff order
        if df.empty:
            return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                                 for c in ["l_orderkey", "odays", "cents"]})
        df = df.sort_values("l_orderkey", kind="mergesort")
        ks = df["l_orderkey"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(ks))
        return pd.DataFrame({
            "l_orderkey": ks[starts],
            "odays": df["odays"].to_numpy(np.int64)[starts],
            "cents": np.add.reduceat(df["cents"].to_numpy(np.int64),
                                     starts)})

    summed = partitioned_group_map(attached, ["l_orderkey"], sum_block,
                                   None, out_schema=sum_schema)

    out_schema = pa.schema([("l_orderkey", pa.int64()),
                            ("revenue_cents", pa.int64()),
                            ("o_orderdate", pa.string()),
                            ("rank", pa.int64())])

    def topn_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"l_orderkey": pa.array([], pa.int64()),
                             "odays": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64()),
                             "g": pa.array([], pa.int8())})
        ks = t["l_orderkey"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ks, -cents))[:limit]
        return pa.table({
            "l_orderkey": pa.array(ks[order].astype(np.int64)),
            "odays": pa.array(t["odays"].to_numpy(zero_copy_only=False)
                              [order].astype(np.int64)),
            "cents": pa.array(cents[order].astype(np.int64)),
            "g": pa.array(np.zeros(len(order), np.int8))})

    cands = summed.map_batches(topn_partial, batch_format="pyarrow",
                               zero_copy_batch=True)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"l_orderkey": pd.Series([], dtype=np.int64),
                 "revenue_cents": pd.Series([], dtype=np.int64),
                 "o_orderdate": pd.Series([], dtype=object),
                 "rank": pd.Series([], dtype=np.int64)})
        ks = df["l_orderkey"].to_numpy(np.int64)
        cents = df["cents"].to_numpy(np.int64)
        order = np.lexsort((ks, -cents))[:limit]
        days = df["odays"].to_numpy(np.int64)[order]
        dates = np.datetime_as_string(
            days.astype("datetime64[D]"), unit="D")
        return pd.DataFrame({
            "l_orderkey": ks[order],
            "revenue_cents": cents[order],
            "o_orderdate": dates.astype(object),
            "rank": np.arange(1, len(order) + 1, dtype=np.int64)})

    # single logical group: reduce input <= limit x num_blocks rows
    return partitioned_group_map(cands, ["g"], final, 2,
                                 out_schema=out_schema)


Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1997-01-01"


def local_supplier_volume(sf_dir: str, region: str = Q5_REGION,
                          date_lo: str = Q5_DATE_LO,
                          date_hi: str = Q5_DATE_HI,
                          dim_broadcast_max: int = 64 << 20
                          ) -> ray.data.Dataset:
    """(n_name, revenue_cents) — the TPC-H Q5 shape over SIX tables:
    revenue from lineitems whose supplier AND ordering customer sit in
    the same nation of one region, for orders placed in [date_lo,
    date_hi). The widest join pattern in the battery — and the one
    that shows why dimension-size tiering matters at 100 TB:

    - region x nation (O(10) rows) reduce on the driver to the
      in-region nationkey set + the nationkey -> name map;
    - customer and supplier are BROADCAST dimensions: their
      (key, nationkey) pairs stream-collect under a byte cap
      (``_collect_i64`` — loud failure past it), sort once,
      ship once via ``ray.put``, and every fact batch resolves
      membership with a vectorized searchsorted — no shuffle;
    - orders (big) streams: date-pruned at the Parquet read, probes
      the customer broadcast, emits only (o_orderkey, c_nat);
    - lineitem (biggest) streams: probes the supplier broadcast,
      pre-reduces to integer cents per (l_orderkey, s_nat), then the
      order side attaches via the byte-capped zero-copy broadcast
      with the partitioned hash-join fallback
      (``broadcast_join``) — the fact table never shuffles
      below the cap, and the same-nation predicate (c_nat == s_nat)
      applies right at the attach;
    - per-block partial sums collapse to O(25 nations) rows before
      the only tiny shuffle (group-merge by nation).

    Money is exact integer cents (floor(x*100 + 0.5)), bit-stable
    under any summation order, same rule as the SQL oracle."""
    import datetime

    import ray as _ray

    from ..functions.joins import broadcast_join

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)

    # region x nation: O(10) rows — a driver-side reduce is the right
    # plan at any scale
    rg = ray.data.read_parquet(f"{sf_dir}/region.parquet",
                               columns=["r_regionkey", "r_name"]) \
        .to_pandas()
    rkeys = set(rg.loc[rg.r_name == region, "r_regionkey"].astype(int))
    na = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    na = na[na.n_regionkey.astype(int).isin(rkeys)]
    nation_keys = np.sort(na.n_nationkey.to_numpy(np.int64))
    nation_names = na.set_index(na.n_nationkey.astype(np.int64))["n_name"] \
        .to_dict()

    def _nation_dim(path: str, key: str, nat: str) -> tuple:
        """Collect a (key, nationkey) dimension restricted to in-region
        nations, sorted by key, broadcast once."""
        ds = ray.data.read_parquet(f"{sf_dir}/{path}",
                                   columns=[key, nat])
        got = _collect_i64(ds, [key, nat], dim_broadcast_max)
        if got is None:
            raise ValueError(
                f"{path} exceeds the dimension broadcast budget "
                f"({dim_broadcast_max} B); raise dim_broadcast_max or "
                "route through the partitioned hash_join")
        keys, nats = got
        keep = np.isin(nats, nation_keys)
        keys, nats = keys[keep], nats[keep]
        order = np.argsort(keys, kind="stable")
        return _ray.put(keys[order]), _ray.put(nats[order])

    ck_ref, cn_ref = _nation_dim("customer.parquet", "c_custkey",
                                 "c_nationkey")
    sk_ref, sn_ref = _nation_dim("supplier.parquet", "s_suppkey",
                                 "s_nationkey")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=((pc.field("o_orderdate") >= pc.scalar(lo))
                & (pc.field("o_orderdate") < pc.scalar(hi))))

    def order_cnat(t: pa.Table) -> pa.Table:
        empty = pa.table({"o_orderkey": pa.array([], pa.int64()),
                          "c_nat": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        # residual re-filter: the pushdown prunes row groups, the
        # predicate must still hold row-exactly
        mask = pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                       pc.less(t["o_orderdate"], pa.scalar(hi))) \
            .combine_chunks()
        t = t.filter(mask)
        if t.num_rows == 0:
            return empty
        ck, cn = ray.get(ck_ref), ray.get(cn_ref)
        if len(ck) == 0:
            return empty
        custs = t["o_custkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(ck, custs).clip(0, len(ck) - 1)
        hit = ck[pos] == custs
        return pa.table({
            "o_orderkey": pa.array(t["o_orderkey"]
                                   .to_numpy(zero_copy_only=False)
                                   .astype(np.int64)[hit]),
            "c_nat": pa.array(cn[pos[hit]])})

    okeys = orders.map_batches(order_cnat, batch_format="pyarrow",
                               zero_copy_batch=True)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"])

    def line_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"l_orderkey": pa.array([], pa.int64()),
                          "s_nat": pa.array([], pa.int64()),
                          "cents": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        sk, sn = ray.get(sk_ref), ray.get(sn_ref)
        if len(sk) == 0:
            return empty
        supps = t["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(sk, supps).clip(0, len(sk) - 1)
        hit = sk[pos] == supps           # supplier in an in-region nation
        if not hit.any():
            return empty
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)[hit]
        dc = t["l_discount"].to_numpy(zero_copy_only=False)[hit]
        cents = np.floor(ep * (1 - dc) * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64)[hit],
            "s_nat": sn[pos[hit]], "cents": cents})
        g = df.groupby(["l_orderkey", "s_nat"], sort=False)["cents"] \
            .sum().reset_index()
        return pa.table({
            "l_orderkey": pa.array(g["l_orderkey"].to_numpy(np.int64)),
            "s_nat": pa.array(g["s_nat"].to_numpy(np.int64)),
            "cents": pa.array(g["cents"].to_numpy(np.int64))})

    partials = line.map_batches(line_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    attached = broadcast_join(partials, okeys, "l_orderkey", "o_orderkey",
                              "left")

    nat_schema = pa.schema([("n_nationkey", pa.int64()),
                            ("cents", pa.int64())])

    def nation_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return nat_schema.empty_table()
        c_nat = t["c_nat"].to_numpy(zero_copy_only=False)
        s_nat = t["s_nat"].to_numpy(zero_copy_only=False)
        # same-nation predicate right at the attach (c_nat is null
        # where the order is out of range or out of region)
        keep = ~pd.isna(c_nat)
        keep &= np.where(keep, c_nat == s_nat, False)
        if not keep.any():
            return nat_schema.empty_table()
        df = pd.DataFrame({
            "n_nationkey": s_nat[keep].astype(np.int64),
            "cents": t["cents"].to_numpy(zero_copy_only=False)[keep]
            .astype(np.int64)})
        g = df.groupby("n_nationkey", sort=False)["cents"].sum() \
            .reset_index()
        return pa.Table.from_pandas(g, schema=nat_schema,
                                    preserve_index=False)

    nat_partials = attached.map_batches(nation_partial,
                                        batch_format="pyarrow",
                                        zero_copy_batch=True)

    out_schema = pa.schema([("n_name", pa.string()),
                            ("revenue_cents", pa.int64())])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"n_name": pd.Series([], dtype=object),
                 "revenue_cents": pd.Series([], dtype=np.int64)})
        df = df.sort_values("n_nationkey", kind="mergesort")
        ks = df["n_nationkey"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(ks))
        return pd.DataFrame({
            "n_name": np.array([nation_names[int(k)] for k in ks[starts]],
                               dtype=object),
            "revenue_cents": np.add.reduceat(
                df["cents"].to_numpy(np.int64), starts)})

    # merge input is O(nations x blocks) partial rows — tiny
    return partitioned_group_map(nat_partials, ["n_nationkey"], merge, 2,
                                 out_schema=out_schema)


Q18_MIN_QTY = 280


def large_orders(sf_dir: str, min_qty: int = Q18_MIN_QTY,
                 hot_broadcast_max: int = 64 << 20) -> ray.data.Dataset:
    """(c_name, o_custkey, o_orderkey, o_orderdate, total_cents,
    sum_qty) — the TPC-H Q18 shape: orders whose TOTAL lineitem
    quantity exceeds ``min_qty``, with their customer name.

    The pattern the battery lacked: a BIG-table self-aggregation whose
    qualifying key set is tiny, broadcast back to prune the other big
    streams. Scale shape:

    - lineitem pre-reduces (orderkey, qty) per block, then ONE
      hash-partitioned sum by orderkey — the only wide op, volume
      O(distinct orderkeys per block) after the combiner;
    - the HAVING filter runs inside the merge block, so only
      qualifying (orderkey, sum_qty) rows ever leave the shuffle —
      a handful by construction — and they stream-collect under a
      byte cap (loud failure past it) and broadcast sorted;
    - orders streams once, probes the hot set with searchsorted, and
      carries sum_qty along from the aligned broadcast array — the
      second lineitem scan Q18 naively implies never happens;
    - c_name attaches via the byte-capped zero-copy Arrow broadcast
      (hash-join fallback past the cap); the final render is a
      single tiny group.

    Money is exact integer cents; quantities are exact int64 sums."""
    import ray as _ray

    from ..functions.joins import broadcast_join

    line = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                                 columns=["l_orderkey", "l_quantity"])

    pre_schema = pa.schema([("l_orderkey", pa.int64()),
                            ("qty", pa.int64())])

    def pre(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pre_schema.empty_table()
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "qty": t["l_quantity"].to_numpy(zero_copy_only=False)
            .astype(np.int64)})
        g = df.groupby("l_orderkey", sort=False)["qty"].sum().reset_index()
        return pa.Table.from_pandas(g, schema=pre_schema,
                                    preserve_index=False)

    def having(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"l_orderkey": pd.Series([], dtype=np.int64),
                                 "qty": pd.Series([], dtype=np.int64)})
        df = df.sort_values("l_orderkey", kind="mergesort")
        ks = df["l_orderkey"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(ks))
        sums = np.add.reduceat(df["qty"].to_numpy(np.int64), starts)
        keep = sums > min_qty
        return pd.DataFrame({"l_orderkey": ks[starts][keep],
                             "qty": sums[keep]})

    hot = partitioned_group_map(
        line.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True),
        ["l_orderkey"], having, None, out_schema=pre_schema)

    got = _collect_i64(hot, ["l_orderkey", "qty"],
                                hot_broadcast_max)
    if got is None:
        raise ValueError(
            "qualifying order set exceeds the broadcast budget "
            f"({hot_broadcast_max} B); raise min_qty or hot_broadcast_max")
    hkeys, hsums = got
    order = np.argsort(hkeys, kind="stable")
    hk_ref = _ray.put(hkeys[order])
    hs_ref = _ray.put(hsums[order])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def pick(t: pa.Table) -> pa.Table:
        empty = pa.table({"o_orderkey": pa.array([], pa.int64()),
                          "o_custkey": pa.array([], pa.int64()),
                          "odays": pa.array([], pa.int64()),
                          "total_cents": pa.array([], pa.int64()),
                          "sum_qty": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        hk = ray.get(hk_ref)
        if len(hk) == 0:
            return empty
        oks = t["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(hk, oks).clip(0, len(hk) - 1)
        hit = hk[pos] == oks
        if not hit.any():
            return empty
        hs = ray.get(hs_ref)
        us = t["o_orderdate"].cast(pa.int64()).to_numpy(
            zero_copy_only=False)[hit]
        tp = t["o_totalprice"].to_numpy(zero_copy_only=False)[hit]
        return pa.table({
            "o_orderkey": pa.array(oks[hit]),
            "o_custkey": pa.array(t["o_custkey"]
                                  .to_numpy(zero_copy_only=False)
                                  .astype(np.int64)[hit]),
            "odays": pa.array(us // 86_400_000_000),
            "total_cents": pa.array(np.floor(tp * 100 + 0.5)
                                    .astype(np.int64)),
            "sum_qty": pa.array(hs[pos[hit]])})

    picked = orders.map_batches(pick, batch_format="pyarrow",
                                zero_copy_batch=True)

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_name"])
    named = broadcast_join(picked, cust, "o_custkey", "c_custkey", "left")

    out_schema = pa.schema([
        ("c_name", pa.string()), ("o_custkey", pa.int64()),
        ("o_orderkey", pa.int64()), ("o_orderdate", pa.string()),
        ("total_cents", pa.int64()), ("sum_qty", pa.int64())])

    def render(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        days = t["odays"].to_numpy(zero_copy_only=False).astype(np.int64)
        dates = np.datetime_as_string(days.astype("datetime64[D]"),
                                      unit="D").astype(object)
        return pa.table({
            "c_name": t["c_name"],
            "o_custkey": t["o_custkey"],
            "o_orderkey": t["o_orderkey"],
            "o_orderdate": pa.array(dates, pa.string()),
            "total_cents": t["total_cents"],
            "sum_qty": t["sum_qty"]})

    return named.map_batches(render, batch_format="pyarrow",
                             zero_copy_batch=True)


Q14_MONTH_LO = "1996-03-01"
Q14_MONTH_HI = "1996-04-01"


def part_type_revenue(sf_dir: str, date_lo: str = Q14_MONTH_LO,
                      date_hi: str = Q14_MONTH_HI,
                      part_broadcast_max: int = 64 << 20
                      ) -> ray.data.Dataset:
    """(p_type, revenue_cents, n_items) — the TPC-H Q14 shape
    generalized to a per-type breakdown: one month of lineitems joined
    to the part dimension on partkey, revenue as exact integer cents.

    The pattern this adds to the battery: attaching a LOW-CARDINALITY
    dimension ATTRIBUTE (part type) to the fact stream and aggregating
    by it. The dimension ships as two aligned broadcast arrays —
    sorted partkeys + int8 type CODES (the string column never rides
    the fact stream; the code -> name map is O(types) and applies at
    the final merge) — so each fact batch is a searchsorted probe plus
    an int8 take, and the per-block partial is O(types) rows."""
    import datetime

    import ray as _ray


    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)

    part = ray.data.read_parquet(f"{sf_dir}/part.parquet",
                                 columns=["p_partkey", "p_type"])
    # the type vocabulary is O(10); codes keep the broadcast numeric.
    # streamed per-batch unique — never a full-column materialization
    types_set: set[str] = set()
    for b in part.select_columns(["p_type"]).iter_batches(
            batch_size=65536, batch_format="pyarrow"):
        types_set.update(pc.unique(b["p_type"]).to_pylist())
    types = sorted(types_set)
    type_code = {t: i for i, t in enumerate(types)}
    got = _collect_i64(part.map_batches(
        lambda t: pa.table({
            "p_partkey": t["p_partkey"].cast(pa.int64()),
            "code": pa.array(
                np.array([type_code[x]
                          for x in t["p_type"].to_pylist()], np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True),
        ["p_partkey", "code"], part_broadcast_max)
    if got is None:
        raise ValueError(
            "part dimension exceeds the broadcast budget "
            f"({part_broadcast_max} B); raise part_broadcast_max or "
            "route through the partitioned hash_join")
    pkeys, pcodes = got
    order = np.argsort(pkeys, kind="stable")
    pk_ref = _ray.put(pkeys[order])
    pc_ref = _ray.put(pcodes[order].astype(np.int8))

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=((pc.field("l_shipdate") >= pc.scalar(lo))
                & (pc.field("l_shipdate") < pc.scalar(hi))))

    agg_schema = pa.schema([("code", pa.int64()),
                            ("revenue_cents", pa.int64()),
                            ("n_items", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        mask = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                       pc.less(t["l_shipdate"], pa.scalar(hi))) \
            .combine_chunks()
        t = t.filter(mask)
        if t.num_rows == 0:
            return agg_schema.empty_table()
        pk = ray.get(pk_ref)
        pcd = ray.get(pc_ref)
        parts = t["l_partkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(pk, parts).clip(0, max(len(pk) - 1, 0))
        if len(pk) == 0:
            return agg_schema.empty_table()
        hit = pk[pos] == parts
        if not hit.any():
            return agg_schema.empty_table()
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)[hit]
        dc = t["l_discount"].to_numpy(zero_copy_only=False)[hit]
        cents = np.floor(ep * (1 - dc) * 100 + 0.5).astype(np.int64)
        codes = pcd[pos[hit]].astype(np.int64)
        n_types = len(types)
        rev = np.bincount(codes, weights=None, minlength=n_types)
        # exact integer sums per code: bincount with float weights
        # would round — use add.at on int64 instead
        revc = np.zeros(n_types, np.int64)
        np.add.at(revc, codes, cents)
        nz = np.flatnonzero(rev)
        return pa.table({
            "code": pa.array(nz.astype(np.int64)),
            "revenue_cents": pa.array(revc[nz]),
            "n_items": pa.array(rev[nz].astype(np.int64))})

    partials = line.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)

    out_schema = pa.schema([("p_type", pa.string()),
                            ("revenue_cents", pa.int64()),
                            ("n_items", pa.int64())])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"p_type": pd.Series([], dtype=object),
                 "revenue_cents": pd.Series([], dtype=np.int64),
                 "n_items": pd.Series([], dtype=np.int64)})
        df = df.sort_values("code", kind="mergesort")
        ks = df["code"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(ks))
        return pd.DataFrame({
            "p_type": np.array([types[int(k)] for k in ks[starts]],
                               dtype=object),
            "revenue_cents": np.add.reduceat(
                df["revenue_cents"].to_numpy(np.int64), starts),
            "n_items": np.add.reduceat(
                df["n_items"].to_numpy(np.int64), starts)})

    # merge input is O(types x blocks) rows — tiny
    return partitioned_group_map(partials, ["code"], merge, 2,
                                 out_schema=out_schema)


Q10_DATE_LO = "1996-07-01"
Q10_DATE_HI = "1996-10-01"


def returned_item_report(sf_dir: str, date_lo: str = Q10_DATE_LO,
                         date_hi: str = Q10_DATE_HI, limit: int = 20,
                         orders_broadcast_max: int = 256 << 20
                         ) -> ray.data.Dataset:
    """(c_custkey, c_name, revenue_cents, acctbal_cents, n_name, rank)
    — the TPC-H Q10 shape: customers ranked by revenue lost to
    returned items in one quarter, top-``limit`` with their account
    and nation attributes attached.

    The pattern the battery lacked: an aggregation whose key grain is
    the FULL customer population (not a tiny hot set like Q18, not a
    handful of groups like Q1/Q14), reduced to a top-k WITHOUT a
    global sort, with the wide dimension attributes attached only to
    the k winners by a predicate-pushdown point read. Scale shape:

    - the quarter's orders project to an (orderkey -> custkey) map
      that attaches to the returned-lineitem stream via the
      byte-capped zero-copy broadcast (``broadcast_join``,
      partitioned hash-join fallback past the cap) — the fact table
      never shuffles below the cap;
    - revenue pre-reduces per block by orderkey before the attach and
      by custkey after it, so the ONE hash shuffle moves O(distinct
      custkeys per block) rows, never O(lineitems);
    - top-k runs as per-block partials plus one tiny final rank — at
      any scale only limit x num_blocks candidate rows ever move;
    - customer/nation attributes are read AFTER the winners are
      known: a row-group-pruned point read of <= limit keys — the
      wide customer table never joins the fact stream at all.

    Money is exact integer cents (the repo-wide floor(x*100+0.5) rule
    on both engine and oracle side)."""
    import datetime

    import pyarrow.parquet as pq
    import ray as _ray

    from ..functions.joins import broadcast_join

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=((pc.field("o_orderdate") >= pc.scalar(lo))
                & (pc.field("o_orderdate") < pc.scalar(hi))))

    def order_cust(t: pa.Table) -> pa.Table:
        empty = pa.table({"o_orderkey": pa.array([], pa.int64()),
                          "o_custkey": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        # residual re-filter: the pushdown prunes row groups, the
        # predicate must still hold row-exactly (repo convention)
        m = pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)))
        t = t.filter(m.combine_chunks())
        return pa.table({"o_orderkey": t["o_orderkey"].cast(pa.int64()),
                         "o_custkey": t["o_custkey"].cast(pa.int64())})

    okeys = orders.map_batches(order_cust, batch_format="pyarrow",
                               zero_copy_batch=True)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"],
        filter=(pc.field("l_returnflag") == "R"))

    def line_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"l_orderkey": pa.array([], pa.int64()),
                          "cents": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        t = t.filter(pc.equal(t["l_returnflag"], "R").combine_chunks())
        if t.num_rows == 0:
            return empty
        ep = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        dc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(ep * (1 - dc) * 100 + 0.5).astype(np.int64)
        df = pd.DataFrame({
            "l_orderkey": t["l_orderkey"].to_numpy(zero_copy_only=False)
            .astype(np.int64), "cents": cents})
        g = df.groupby("l_orderkey", sort=False)["cents"].sum() \
            .reset_index()
        return pa.table({"l_orderkey": pa.array(g["l_orderkey"]
                                                .to_numpy(np.int64)),
                         "cents": pa.array(g["cents"]
                                           .to_numpy(np.int64))})

    partials = line.map_batches(line_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    attached = broadcast_join(
        partials, okeys.map_batches(
            lambda t: t.rename_columns(["o_orderkey", "c_custkey"]),
            batch_format="pyarrow"),
        "l_orderkey", "o_orderkey", "left", orders_broadcast_max)

    sum_schema = pa.schema([("c_custkey", pa.int64()),
                            ("cents", pa.int64())])

    def sum_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df.dropna(subset=["c_custkey"])  # order outside the window
        if df.empty:
            return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                                 for c in ["c_custkey", "cents"]})
        df = df.sort_values("c_custkey", kind="mergesort")
        ks = df["c_custkey"].to_numpy(np.int64)
        starts = np.flatnonzero(group_starts(ks))
        return pd.DataFrame({
            "c_custkey": ks[starts],
            "cents": np.add.reduceat(df["cents"].to_numpy(np.int64),
                                     starts)})

    summed = partitioned_group_map(attached, ["c_custkey"], sum_block,
                                   None, out_schema=sum_schema)

    def topn_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"c_custkey": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64()),
                             "g": pa.array([], pa.int8())})
        ks = t["c_custkey"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ks, -cents))[:limit]
        return pa.table({
            "c_custkey": pa.array(ks[order].astype(np.int64)),
            "cents": pa.array(cents[order].astype(np.int64)),
            "g": pa.array(np.zeros(len(order), np.int8))})

    cands = summed.map_batches(topn_partial, batch_format="pyarrow",
                               zero_copy_batch=True)

    top_schema = pa.schema([("c_custkey", pa.int64()),
                            ("revenue_cents", pa.int64()),
                            ("rank", pa.int64())])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"c_custkey": pd.Series([], dtype=np.int64),
                 "revenue_cents": pd.Series([], dtype=np.int64),
                 "rank": pd.Series([], dtype=np.int64)})
        ks = df["c_custkey"].to_numpy(np.int64)
        cents = df["cents"].to_numpy(np.int64)
        order = np.lexsort((ks, -cents))[:limit]
        return pd.DataFrame({
            "c_custkey": ks[order],
            "revenue_cents": cents[order],
            "rank": np.arange(1, len(order) + 1, dtype=np.int64)})

    # single logical group: reduce input <= limit x num_blocks rows
    top = partitioned_group_map(cands, ["g"], final, 2,
                                out_schema=top_schema)

    # the winners are <= limit rows by construction — a driver
    # materialization of a bounded-small result, the allowed kind
    rows = top.take_all()
    if not rows:
        return ray.data.from_arrow(pa.table({
            "c_custkey": pa.array([], pa.int64()),
            "c_name": pa.array([], pa.string()),
            "revenue_cents": pa.array([], pa.int64()),
            "acctbal_cents": pa.array([], pa.int64()),
            "n_name": pa.array([], pa.string()),
            "rank": pa.array([], pa.int64())}))
    keys = [int(r["c_custkey"]) for r in rows]

    # point read: only the winners' row groups leave storage; nation
    # is a constant-size dimension (25 rows in TPC-H)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
        filters=[("c_custkey", "in", keys)])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])

    cdf = cust.to_pandas().set_index("c_custkey")
    ndf = nat.to_pandas().set_index("n_nationkey")
    out = pd.DataFrame(rows)
    out["c_name"] = cdf["c_name"].reindex(keys).to_numpy(object)
    bal = cdf["c_acctbal"].reindex(keys).to_numpy(np.float64)
    out["acctbal_cents"] = np.floor(bal * 100 + 0.5).astype(np.int64)
    nk = cdf["c_nationkey"].reindex(keys).to_numpy(np.int64)
    out["n_name"] = ndf["n_name"].reindex(nk).to_numpy(object)
    out = out[["c_custkey", "c_name", "revenue_cents", "acctbal_cents",
               "n_name", "rank"]]
    return ray.data.from_arrow(pa.Table.from_pandas(
        out, preserve_index=False))


def rollup_revenue(sf_dir: str, cutoff: str = PRICING_CUTOFF
                   ) -> pa.Table:
    """Multi-grain pricing summary: ``GROUP BY ROLLUP (l_returnflag,
    l_linestatus)`` — the finest grain plus the per-returnflag
    subtotals plus the grand total, rolled-up grains labeled with the
    ``'ALL'`` sentinel (the real values are single characters, so the
    sentinel cannot collide).

    Scale shape: ONE distributed pass computes the finest grain
    (``pricing_summary``: per-batch integer-cents combiners, then a
    partition-count shuffle of O(groups x blocks) partial rows); every
    coarser grain is derived from the finest by exact integer
    re-aggregation, because all four measures are decomposable sums.
    That is the textbook rollup optimization — the 100-TB fact table
    is scanned once, and the rollup itself touches only the
    finest-grain result (|flags| x |statuses| rows, single digits
    here). The derivation runs on the driver over that tiny table.

    Mirrors the same aggregate spine as ``pricing_summary``
    (reference analog: the per-extension/per-format summary counters,
    /root/reference/crates/image-deduper-core/src/lib.rs:188-210)."""
    fine = pricing_summary(sf_dir, cutoff).to_pandas()
    measures = ["sum_qty", "sum_base_cents", "sum_disc_bp", "n_rows"]

    by_flag = fine.groupby("l_returnflag", as_index=False)[measures].sum()
    by_flag["l_linestatus"] = "ALL"
    grand = fine[measures].sum().to_frame().T
    grand["l_returnflag"] = "ALL"
    grand["l_linestatus"] = "ALL"
    out = pd.concat([fine, by_flag, grand], ignore_index=True)
    out = out[["l_returnflag", "l_linestatus", *measures]]
    for c in measures:
        out[c] = out[c].astype(np.int64)
    out = out.sort_values(["l_returnflag", "l_linestatus"],
                          kind="mergesort").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


Q4_DATE_LO, Q4_DATE_HI = "1996-01-01", "1996-07-01"


def order_priority_semijoin(sf_dir: str, date_lo: str = Q4_DATE_LO,
                            date_hi: str = Q4_DATE_HI) -> ray.data.Dataset:
    """(o_orderpriority, order_count) — TPC-H Q4-shape BIG-BIG
    SEMI-JOIN: count the orders in a date window that have at least
    one returned lineitem (``EXISTS`` against the fact table, adapted
    to this table's columns: the reference predicate l_commitdate <
    l_receiptdate isn't in the synthetic schema, so the qualifying
    row is ``l_returnflag = 'R'``).

    This is the one join pattern the battery didn't cover: NEITHER
    side fits a broadcast (orders and lineitem are both fact-scale),
    so the engine co-partitions both by orderkey in ONE hash shuffle
    — the union-tag trick ``hash_join`` uses, but with semi-join
    semantics (membership only, no row expansion, each order counted
    once no matter how many lineitems qualify). Shuffle volume is
    bounded before anything moves: the lineitem side ships per-batch
    DISTINCT qualifying keys (int64 only, no payload), the orders
    side only the window's rows. Each partition then does one
    ``np.isin`` membership probe and collapses immediately to
    per-priority counts, so the second shuffle is O(priorities x
    partitions) partial rows.

    Reference analog: the resume anti-join's membership shape
    (/root/reference/crates/image-deduper-core/src/persistence/db.rs:
    180-211) inverted to a semi-join and run fact-against-fact."""
    import datetime

    from ..functions.groups import (default_partitions,
                                    partitioned_group_map_arrow,
                                    partitioned_sum)

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)
    sup_schema = pa.schema([("okey", pa.int64()), ("side", pa.int8()),
                            ("prio", pa.string())])
    out_schema = pa.schema([("o_orderpriority", pa.string()),
                            ("order_count", pa.int64())])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=((pc.field("o_orderdate") >= pc.scalar(lo))
                & (pc.field("o_orderdate") < pc.scalar(hi))))

    def conform_orders(t: pa.Table) -> pa.Table:
        # residual re-filter: pushdown prunes row groups, rows must
        # still be checked exactly
        m = pc.and_(pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)))
        t = t.filter(m.combine_chunks())
        return pa.table({"okey": t["o_orderkey"].cast(pa.int64()),
                         "side": pa.array(np.zeros(t.num_rows, np.int8)),
                         "prio": t["o_orderpriority"]}, schema=sup_schema)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag"],
        filter=(pc.field("l_returnflag") == pc.scalar("R")))

    def conform_line(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R").combine_chunks())
        # per-batch DISTINCT before the shuffle: keys-only, deduped
        k = np.unique(t["l_orderkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"okey": pa.array(k),
                         "side": pa.array(np.ones(len(k), np.int8)),
                         "prio": pa.nulls(len(k), pa.string())},
                        schema=sup_schema)

    both = (orders.map_batches(conform_orders, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(line.map_batches(conform_line, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        okey = t["okey"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        have = np.unique(okey[side == 1])
        lmask = side == 0
        # semi-join: membership only — an order with many qualifying
        # lineitems is still ONE hit
        hit = np.isin(okey[lmask], have, assume_unique=False)
        prio = t["prio"].to_numpy(zero_copy_only=False)[lmask][hit]
        if len(prio) == 0:
            return out_schema.empty_table()
        u, c = np.unique(prio, return_counts=True)
        return pa.table({"o_orderpriority": pa.array(u, pa.string()),
                         "order_count": pa.array(c.astype(np.int64))},
                        schema=out_schema)

    partials = partitioned_group_map_arrow(both, ["okey"], block,
                                           default_partitions(),
                                           out_schema=out_schema)
    # O(priorities x partitions) partial rows -> tiny final shuffle
    return partitioned_sum(partials, ["o_orderpriority"], "order_count",
                           2, out_schema, out_name="order_count")


Q6_DATE_LO = "1996-01-01"
Q6_DATE_HI = "1997-01-01"


def forecast_revenue(sf_dir: str, date_lo: str = Q6_DATE_LO,
                     date_hi: str = Q6_DATE_HI,
                     disc_lo_bp: int = 500, disc_hi_bp: int = 700,
                     max_qty: int = 24) -> ray.data.Dataset:
    """(revenue_cents, n_rows) — TPC-H Q6 shape: the WHOLE-PIPELINE
    SCALAR REDUCE. One predicate-pruned scan of the fact table, a
    per-batch 2-value partial (sum + count), and a single tiny merge —
    the only shuffled bytes are O(blocks) 16-byte partials, so the
    plan is identical at sf0.001 and 100 TB.

    Discount equality is tested in exact basis points (the repo-wide
    ``floor(x*10000+0.5)`` rule) so the BETWEEN matches the oracle
    bit-for-bit; per-row revenue ``extendedprice*discount`` is floored
    to integer cents BEFORE summation so the distributed sum is
    order-independent.

    Reference analog: the single-counter rollup of process_batches
    (/root/reference/crates/image-deduper-core/src/lib.rs:131-259)."""
    import datetime

    from ..functions.groups import partitioned_group_map_arrow

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)
    part_schema = pa.schema([("k", pa.int8()),
                             ("revenue_cents", pa.int64()),
                             ("n_rows", pa.int64())])
    out_schema = pa.schema([("revenue_cents", pa.int64()),
                            ("n_rows", pa.int64())])

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity",
                 "l_shipdate"],
        filter=((pc.field("l_shipdate") >= pc.scalar(lo))
                & (pc.field("l_shipdate") < pc.scalar(hi))))

    def partial(t: pa.Table) -> pa.Table:
        # residual re-filter (pushdown prunes row groups only)
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m.combine_chunks())
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        bp = np.floor(disc * 10000 + 0.5).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        keep = (bp >= disc_lo_bp) & (bp <= disc_hi_bp) & (qty < max_qty)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        cents = np.floor(price * disc[keep] * 100 + 0.5).astype(np.int64)
        # ALWAYS one partial row (zeros included) so the merged result
        # is exactly one row even over an empty window, like SQL SUM
        return pa.table({"k": pa.array([np.int8(0)]),
                         "revenue_cents": pa.array([int(cents.sum())]),
                         "n_rows": pa.array([int(keep.sum())])},
                        schema=part_schema)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        return pa.table({
            "revenue_cents": pa.array([int(pc.sum(t["revenue_cents"])
                                           .as_py() or 0)]),
            "n_rows": pa.array([int(pc.sum(t["n_rows"]).as_py() or 0)])},
            schema=out_schema)

    return partitioned_group_map_arrow(partials, ["k"], merge, 2,
                                       out_schema=out_schema)


Q12_DATE_LO = "1996-01-01"
Q12_DATE_HI = "1997-01-01"
Q12_HIGH = ("1-URGENT", "2-HIGH")


def priority_line_counts(sf_dir: str, date_lo: str = Q12_DATE_LO,
                         date_hi: str = Q12_DATE_HI) -> ray.data.Dataset:
    """(l_returnflag, high_line_count, low_line_count) — TPC-H Q12
    shape: a BIG-BIG PAYLOAD JOIN with conditional (CASE) aggregation.
    Unlike q4's semi-join (membership only), every lineitem row needs
    an attribute OF its order (the priority class), so the orders side
    ships (orderkey, is_high) through the same one-shuffle union-tag
    co-partition, and each partition resolves lineitems against its
    order slice with one sorted searchsorted probe — no dict, no row
    expansion. The synthetic schema has no l_shipmode, so the grouping
    attribute is l_returnflag (same shape, same cardinality class).

    Partials collapse to O(flags) rows per partition before the final
    O(flags x partitions) merge."""
    import datetime

    from ..functions.groups import (default_partitions, group_starts,
                                    partitioned_group_map_arrow)

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)
    sup_schema = pa.schema([("okey", pa.int64()), ("side", pa.int8()),
                            ("is_high", pa.int8()),
                            ("flag", pa.string())])
    out_schema = pa.schema([("l_returnflag", pa.string()),
                            ("high_line_count", pa.int64()),
                            ("low_line_count", pa.int64())])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"])

    def conform_orders(t: pa.Table) -> pa.Table:
        is_high = pc.is_in(t["o_orderpriority"],
                           value_set=pa.array(Q12_HIGH)).cast(pa.int8())
        return pa.table({"okey": t["o_orderkey"].cast(pa.int64()),
                         "side": pa.array(np.zeros(t.num_rows, np.int8)),
                         "is_high": is_high,
                         "flag": pa.nulls(t.num_rows, pa.string())},
                        schema=sup_schema)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
        filter=((pc.field("l_shipdate") >= pc.scalar(lo))
                & (pc.field("l_shipdate") < pc.scalar(hi))))

    def conform_line(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m.combine_chunks())
        return pa.table({"okey": t["l_orderkey"].cast(pa.int64()),
                         "side": pa.array(np.ones(t.num_rows, np.int8)),
                         "is_high": pa.nulls(t.num_rows, pa.int8()),
                         "flag": t["l_returnflag"]}, schema=sup_schema)

    both = (orders.map_batches(conform_orders, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(line.map_batches(conform_line, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        okey = t["okey"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        omask = side == 0
        o_order = np.argsort(okey[omask], kind="stable")
        ok = okey[omask][o_order]
        oh = (t["is_high"].to_numpy(zero_copy_only=False)[omask][o_order]
              .astype(np.int64))
        lmask = ~omask
        lk = okey[lmask]
        if len(lk) == 0 or len(ok) == 0:
            return out_schema.empty_table()
        pos = np.searchsorted(ok, lk)
        pos_c = np.minimum(pos, len(ok) - 1)
        matched = ok[pos_c] == lk           # inner join: drop orphans
        hi_flag = oh[pos_c[matched]]
        flags = (t["flag"].to_numpy(zero_copy_only=False)[lmask][matched])
        if len(flags) == 0:
            return out_schema.empty_table()
        order = np.argsort(flags, kind="stable")
        flags, hi_flag = flags[order], hi_flag[order]
        starts = np.flatnonzero(group_starts(flags))
        high = np.add.reduceat(hi_flag, starts)
        total = np.diff(np.append(starts, len(flags)))
        return pa.table({"l_returnflag": pa.array(flags[starts],
                                                  pa.string()),
                         "high_line_count": pa.array(high),
                         "low_line_count": pa.array(total - high)},
                        schema=out_schema)

    partials = partitioned_group_map_arrow(both, ["okey"], block,
                                           default_partitions(),
                                           out_schema=out_schema)

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        order = np.argsort(flags, kind="stable")
        flags = flags[order]
        starts = np.flatnonzero(group_starts(flags))
        cols = {"l_returnflag": pa.array(flags[starts], pa.string())}
        for c in ("high_line_count", "low_line_count"):
            v = t[c].to_numpy(zero_copy_only=False)[order]
            cols[c] = pa.array(np.add.reduceat(v, starts))
        return pa.table(cols, schema=out_schema)

    return partitioned_group_map_arrow(partials, ["l_returnflag"], merge,
                                       2, out_schema=out_schema)


Q13_EXCLUDE_PRIORITY = "4-NOT SPECIFIED"


def order_count_distribution(sf_dir: str,
                             exclude_priority: str = Q13_EXCLUDE_PRIORITY
                             ) -> ray.data.Dataset:
    """(c_count, custdist) — TPC-H Q13 shape: LEFT OUTER JOIN + DOUBLE
    AGGREGATION. Customers with zero qualifying orders must appear in
    the c_count=0 bucket, so an inner join can't express it: both
    sides co-partition by custkey (one union-tag shuffle), each
    partition counts orders per custkey INCLUDING the customer rows no
    order matched, collapses immediately to a partial (c_count ->
    customers) histogram, and the final merge sums O(distinct counts x
    partitions) tiny rows. The reference-side filter (Q13's o_comment
    NOT LIKE) is adapted to the synthetic schema as an order-priority
    exclusion."""
    from ..functions.groups import (default_partitions,
                                    partitioned_group_map_arrow,
                                    partitioned_sum)

    sup_schema = pa.schema([("ckey", pa.int64()), ("side", pa.int8())])
    out_schema = pa.schema([("c_count", pa.int64()),
                            ("custdist", pa.int64())])

    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey"])

    def conform_cust(t: pa.Table) -> pa.Table:
        return pa.table({"ckey": t["c_custkey"].cast(pa.int64()),
                         "side": pa.array(np.zeros(t.num_rows, np.int8))},
                        schema=sup_schema)

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority"],
        filter=(pc.field("o_orderpriority") != pc.scalar(exclude_priority)))

    def conform_orders(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["o_orderpriority"],
                                        exclude_priority)).combine_chunks())
        return pa.table({"ckey": t["o_custkey"].cast(pa.int64()),
                         "side": pa.array(np.ones(t.num_rows, np.int8))},
                        schema=sup_schema)

    both = (cust.map_batches(conform_cust, batch_format="pyarrow",
                             zero_copy_batch=True)
            .union(orders.map_batches(conform_orders,
                                      batch_format="pyarrow",
                                      zero_copy_batch=True)))

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        ckey = t["ckey"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        ckeys = np.sort(ckey[side == 0])     # customer spine (unique PK)
        if len(ckeys) == 0:
            return out_schema.empty_table()
        ok = ckey[side == 1]
        pos = np.searchsorted(ckeys, ok)
        pos_c = np.minimum(pos, len(ckeys) - 1)
        pos_v = pos_c[ckeys[pos_c] == ok]    # orphan orders drop (FK holds)
        per_cust = np.bincount(pos_v, minlength=len(ckeys))  # zeros kept
        counts, custs = np.unique(per_cust, return_counts=True)
        return pa.table({"c_count": pa.array(counts.astype(np.int64)),
                         "custdist": pa.array(custs.astype(np.int64))},
                        schema=out_schema)

    partials = partitioned_group_map_arrow(both, ["ckey"], block,
                                           default_partitions(),
                                           out_schema=out_schema)
    return partitioned_sum(partials, ["c_count"], "custdist", 2,
                           out_schema, out_name="custdist")


Q15_DATE_LO = "1996-01-01"
Q15_DATE_HI = "1996-04-01"


def top_supplier(sf_dir: str, date_lo: str = Q15_DATE_LO,
                 date_hi: str = Q15_DATE_HI) -> ray.data.Dataset:
    """(s_suppkey, s_name, total_revenue_cents) — TPC-H Q15 shape:
    GLOBAL-MAX REBROADCAST. One predicate-pruned pass over the fact
    table produces per-supplier revenue partials (O(suppliers) rows
    per block after the in-batch combiner), one small hash shuffle
    merges them, the global max is reduced from that tiny result, and
    the winners (max ties included, as in the spec's view form)
    enrich with the supplier name.

    Scale note: the post-aggregate is O(suppliers) — orders of
    magnitude under the fact table — so the max-reduce and the name
    attach run on the tiny side by construction; nothing returns to
    the fact stream."""
    import datetime

    from ..functions.groups import partitioned_sum
    from ..functions.joins import broadcast_join

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)
    agg_schema = pa.schema([("s_suppkey", pa.int64()),
                            ("total_revenue_cents", pa.int64())])
    out_schema = pa.schema([("s_suppkey", pa.int64()),
                            ("s_name", pa.string()),
                            ("total_revenue_cents", pa.int64())])

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=((pc.field("l_shipdate") >= pc.scalar(lo))
                & (pc.field("l_shipdate") < pc.scalar(hi))))

    def partial(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m.combine_chunks())
        if t.num_rows == 0:
            return agg_schema.empty_table()
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1 - t["l_discount"].to_numpy(zero_copy_only=False))
            * 100 + 0.5).astype(np.int64)
        order = np.argsort(sk, kind="stable")
        sk, cents = sk[order], cents[order]
        starts = np.flatnonzero(group_starts(sk))
        return pa.table({"s_suppkey": pa.array(sk[starts]),
                         "total_revenue_cents": pa.array(
                             np.add.reduceat(cents, starts))},
                        schema=agg_schema)

    # materialize the O(suppliers) aggregate ONCE (tiny by
    # construction) so the max-reduce and the winners filter don't
    # each re-run the fact scan
    per_supp = partitioned_sum(
        line.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["s_suppkey"], "total_revenue_cents", 4, agg_schema,
        out_name="total_revenue_cents").materialize()

    # global max over the tiny aggregate, then the (tie-inclusive)
    # winners filter in one vectorized pass; an empty window yields
    # max() == None — return the oracle's empty result, not a crash
    mx = per_supp.max("total_revenue_cents")
    if mx is None:
        return ray.data.from_arrow(out_schema.empty_table())
    winners = per_supp.filter(
        expr=f"total_revenue_cents == {int(mx)}")

    res = broadcast_join(
        winners,
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_name"]),
        "s_suppkey", "s_suppkey", "left")
    return res.map_batches(lambda t: t.select(out_schema.names)
                           .cast(out_schema), batch_format="pyarrow")


Q17_BRANDS = ("Brand#1", "Brand#2")


def small_quantity_revenue(sf_dir: str,
                           brands: tuple[str, ...] = Q17_BRANDS
                           ) -> ray.data.Dataset:
    """(p_brand, total_cents, n_rows) — TPC-H Q17 shape: PER-KEY
    SCALAR BROADCAST-BACK. Revenue of lineitems whose quantity is
    below 20% of their part's average quantity, for parts of the given
    brands. Two passes over the (part-pruned) fact stream: pass 1
    reduces to an O(parts) aggregate (sum_qty, cnt per partkey),
    which broadcasts back via ``ray.put``; pass 2 re-probes each row
    against ITS OWN part's threshold.

    The 20%-of-average test runs in exact integers — ``qty <
    0.2*sum/cnt`` rewritten as ``5*qty*cnt < sum`` (quantities are
    integral) — so engine and oracle agree bit-for-bit with no float
    division anywhere. Per-part state never exceeds O(brand parts),
    orders of magnitude under the fact table."""
    from ..functions.groups import partitioned_group_map_arrow

    agg_schema = pa.schema([("pkey", pa.int64()), ("sq", pa.int64()),
                            ("cnt", pa.int64())])
    out_schema = pa.schema([("p_brand", pa.string()),
                            ("total_cents", pa.int64()),
                            ("n_rows", pa.int64())])

    part_tbl = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"],
        filter=pc.field("p_brand").isin(list(brands)))
    ptb = pa.concat_tables(
        [b for b in part_tbl.iter_batches(batch_size=65536,
                                          batch_format="pyarrow")
         if b.num_rows > 0] or [pa.schema(
             [("p_partkey", pa.int64()),
              ("p_brand", pa.string())]).empty_table()]).combine_chunks()
    pkeys = np.sort(ptb["p_partkey"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))
    brand_by_key = dict(zip(
        ptb["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64),
        ptb["p_brand"].to_pylist()))
    pkeys_ref = ray.put(pkeys)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"])

    def prune(t: pa.Table) -> pa.Table:
        keys = ray.get(pkeys_ref)
        lk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) == 0:
            return t.slice(0, 0)
        pos = np.searchsorted(keys, lk)
        keep = keys[np.minimum(pos, len(keys) - 1)] == lk
        return t.filter(pa.array(keep))

    # materialize ONCE: both the threshold pass and the probe pass
    # consume the pruned stream, and it is brand-restricted small by
    # construction — without this the full fact scan runs twice
    pruned = line.map_batches(prune, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(pk, kind="stable")
        pk, qty = pk[order], qty[order]
        starts = np.flatnonzero(group_starts(pk))
        return pa.table({
            "pkey": pa.array(pk[starts]),
            "sq": pa.array(np.add.reduceat(qty, starts)),
            "cnt": pa.array(np.diff(np.append(starts, len(pk)))
                            .astype(np.int64))}, schema=agg_schema)

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        pk = t["pkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(pk, kind="stable")
        pk = pk[order]
        starts = np.flatnonzero(group_starts(pk))
        return pa.table({
            "pkey": pa.array(pk[starts]),
            "sq": pa.array(np.add.reduceat(
                t["sq"].to_numpy(zero_copy_only=False)[order], starts)),
            "cnt": pa.array(np.add.reduceat(
                t["cnt"].to_numpy(zero_copy_only=False)[order], starts))},
            schema=agg_schema)

    per_part = partitioned_group_map_arrow(
        pruned.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["pkey"], merge, 4, out_schema=agg_schema)

    # O(brand parts) aggregate -> broadcast as sorted parallel arrays
    agg_parts = [b for b in per_part.iter_batches(batch_size=65536,
                                                  batch_format="pyarrow")
                 if b.num_rows > 0]
    if agg_parts:
        at = pa.concat_tables(agg_parts).combine_chunks()
        apk = at["pkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(apk, kind="stable")
        apk = apk[order]
        asq = at["sq"].to_numpy(zero_copy_only=False)[order]
        acnt = at["cnt"].to_numpy(zero_copy_only=False)[order]
    else:
        apk = asq = acnt = np.empty(0, np.int64)
    thresh_ref = ray.put((apk, asq, acnt, brand_by_key))

    def below_avg(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        tpk, tsq, tcnt, bbk = ray.get(thresh_ref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = np.searchsorted(tpk, pk)      # every pruned row has stats
        keep = 5 * qty * tcnt[pos] < tsq[pos]
        if not keep.any():
            return out_schema.empty_table()
        cents = np.floor(t["l_extendedprice"]
                         .to_numpy(zero_copy_only=False)[keep]
                         * 100 + 0.5).astype(np.int64)
        brands_arr = np.array([bbk[k] for k in pk[keep]], dtype=object)
        order = np.argsort(brands_arr, kind="stable")
        brands_arr, cents = brands_arr[order], cents[order]
        starts = np.flatnonzero(group_starts(brands_arr))
        return pa.table({
            "p_brand": pa.array(brands_arr[starts], pa.string()),
            "total_cents": pa.array(np.add.reduceat(cents, starts)),
            "n_rows": pa.array(np.diff(np.append(starts, len(cents)))
                               .astype(np.int64))}, schema=out_schema)

    partials = pruned.map_batches(below_avg, batch_format="pyarrow",
                                  zero_copy_batch=True)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        br = t["p_brand"].to_numpy(zero_copy_only=False)
        order = np.argsort(br, kind="stable")
        br = br[order]
        starts = np.flatnonzero(group_starts(br))
        cols = {"p_brand": pa.array(br[starts], pa.string())}
        for c in ("total_cents", "n_rows"):
            cols[c] = pa.array(np.add.reduceat(
                t[c].to_numpy(zero_copy_only=False)[order], starts))
        return pa.table(cols, schema=out_schema)

    from ..functions.groups import partitioned_group_map_arrow as pgma
    return pgma(partials, ["p_brand"], final, 2, out_schema=out_schema)


Q22_CODES = (0, 1, 2)
Q22_CODE_MOD = 5
Q22_LAPSE_CUTOFF = "1999-01-01"


def idle_customer_balance(sf_dir: str,
                          codes: tuple[int, ...] = Q22_CODES,
                          code_mod: int = Q22_CODE_MOD,
                          lapse_cutoff: str = Q22_LAPSE_CUTOFF
                          ) -> ray.data.Dataset:
    """(cntrycode, numcust, totacctbal_cents) — TPC-H Q22 shape:
    GLOBAL SCALAR SUBQUERY + BIG-BIG ANTI-JOIN. Customers in the given
    country codes with above-average account balance (average over
    positive balances of the same code set, the Q22 correlated scalar)
    who have placed NO orders since ``lapse_cutoff``, counted per
    code. The synthetic schema has no c_phone, so the country code is
    ``c_nationkey %% code_mod``; the spec's no-orders-at-all predicate
    is vacuous on this data (every customer has orders), so the
    anti-join side is the cutoff-windowed order stream — same shape,
    non-empty answer.

    Three bounded stages: (1) a per-batch (sum, count) partial over
    customers reduces the scalar threshold driver-side (O(blocks)
    rows); (2) customers and DISTINCT order-custkeys co-partition in
    one union-tag shuffle for NOT-EXISTS semantics (neither side
    broadcastable at scale); (3) each partition emits O(codes)
    partials. ``bal > avg`` is tested as exact integers:
    ``bal_cents * n > sum_cents``."""
    from ..functions.groups import (default_partitions,
                                    partitioned_group_map_arrow,
                                    partitioned_sum)

    sup_schema = pa.schema([("ckey", pa.int64()), ("side", pa.int8()),
                            ("code", pa.int64()),
                            ("bal_cents", pa.int64())])
    out_schema = pa.schema([("cntrycode", pa.int64()),
                            ("numcust", pa.int64()),
                            ("totacctbal_cents", pa.int64())])

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_acctbal"])

    code_set = np.array(sorted(codes), np.int64)

    def conform_cust(t: pa.Table) -> pa.Table:
        code = (t["c_nationkey"].to_numpy(zero_copy_only=False)
                .astype(np.int64) % code_mod)
        keep = np.isin(code, code_set)
        bal = np.floor(t["c_acctbal"].to_numpy(zero_copy_only=False)[keep]
                       * 100 + 0.5).astype(np.int64)
        return pa.table({
            "ckey": pa.array(t["c_custkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)[keep]),
            "side": pa.array(np.zeros(int(keep.sum()), np.int8)),
            "code": pa.array(code[keep]),
            "bal_cents": pa.array(bal)}, schema=sup_schema)

    cust_rows = cust.map_batches(conform_cust, batch_format="pyarrow",
                                 zero_copy_batch=True)

    # stage 1: the scalar threshold — avg over POSITIVE balances,
    # reduced from O(blocks) 2-int partials
    def bal_partial(t: pa.Table) -> pa.Table:
        bal = t["bal_cents"].to_numpy(zero_copy_only=False)
        pos = bal[bal > 0]
        return pa.table({"s": pa.array([int(pos.sum())]),
                         "n": pa.array([int(len(pos))])})

    # iter_batches re-batches the partials, so each block holds MANY
    # one-row partials — sum whole columns, never row [0]
    sn = [(int(pc.sum(b["s"]).as_py() or 0),
           int(pc.sum(b["n"]).as_py() or 0))
          for b in cust_rows.map_batches(
              bal_partial, batch_format="pyarrow")
          .iter_batches(batch_size=65536, batch_format="pyarrow")
          if b.num_rows > 0]
    s_total = sum(x for x, _ in sn)
    n_total = sum(y for _, y in sn)

    import datetime
    cut = datetime.datetime.fromisoformat(lapse_cutoff)
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"],
        filter=(pc.field("o_orderdate") >= pc.scalar(cut)))

    def conform_orders(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["o_orderdate"],
                                      pa.scalar(cut)).combine_chunks())
        # per-batch DISTINCT: keys-only anti-join probe side
        k = np.unique(t["o_custkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64))
        return pa.table({"ckey": pa.array(k),
                         "side": pa.array(np.ones(len(k), np.int8)),
                         "code": pa.nulls(len(k), pa.int64()),
                         "bal_cents": pa.nulls(len(k), pa.int64())},
                        schema=sup_schema)

    both = cust_rows.union(
        orders.map_batches(conform_orders, batch_format="pyarrow",
                           zero_copy_batch=True))

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        ckey = t["ckey"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        have = np.unique(ckey[side == 1])
        cmask = side == 0
        ck, code = ckey[cmask], t["code"].to_numpy(
            zero_copy_only=False)[cmask]
        # the union carries nulls on the orders side, so to_numpy gives
        # FLOAT64 — cast back after selecting the customer rows so the
        # threshold test and reduceat stay integer-exact
        bal = t["bal_cents"].to_numpy(zero_copy_only=False)[cmask] \
            .astype(np.int64)
        keep = (~np.isin(ck, have)) & (bal * n_total > s_total)
        if not keep.any():
            return out_schema.empty_table()
        code, bal = code[keep].astype(np.int64), bal[keep]
        order = np.argsort(code, kind="stable")
        code, bal = code[order], bal[order]
        starts = np.flatnonzero(group_starts(code))
        return pa.table({
            "cntrycode": pa.array(code[starts]),
            "numcust": pa.array(np.diff(np.append(starts, len(code)))
                                .astype(np.int64)),
            "totacctbal_cents": pa.array(np.add.reduceat(bal, starts))},
            schema=out_schema)

    partials = partitioned_group_map_arrow(both, ["ckey"], block,
                                           default_partitions(),
                                           out_schema=out_schema)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        code = t["cntrycode"].to_numpy(zero_copy_only=False)
        order = np.argsort(code, kind="stable")
        code = code[order]
        starts = np.flatnonzero(group_starts(code))
        cols = {"cntrycode": pa.array(code[starts])}
        for c in ("numcust", "totacctbal_cents"):
            cols[c] = pa.array(np.add.reduceat(
                t[c].to_numpy(zero_copy_only=False)[order], starts))
        return pa.table(cols, schema=out_schema)

    return partitioned_group_map_arrow(partials, ["cntrycode"], final,
                                       2, out_schema=out_schema)


# OR-of-ANDs clauses: (brand, size_lo, size_hi, qty_lo, qty_hi)
Q19_CLAUSES = (("Brand#1", 1, 5, 1, 11),
               ("Brand#2", 1, 10, 10, 20),
               ("Brand#3", 1, 15, 20, 30))


def disjunctive_revenue(sf_dir: str,
                        clauses: tuple = Q19_CLAUSES) -> ray.data.Dataset:
    """(p_brand, revenue_cents, n_rows) — TPC-H Q19 shape:
    DISJUNCTIVE (OR-of-ANDs) PREDICATE JOIN. Each clause couples a
    part attribute (brand + size range) with a FACT attribute
    (quantity range), so neither side can be pre-filtered alone: the
    part dimension broadcasts once as sorted parallel arrays
    (key → brand code, size), and each fact batch evaluates every
    clause as one vectorized mask — the OR never materializes an
    intermediate join.

    Only parts matching SOME clause's brand+size enter the broadcast
    (the dimension prune), so broadcast bytes stay O(qualifying
    parts) no matter how wide `part` is."""
    out_schema = pa.schema([("p_brand", pa.string()),
                            ("revenue_cents", pa.int64()),
                            ("n_rows", pa.int64())])

    brands = [c[0] for c in clauses]
    part_tbl = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_size"],
        filter=pc.field("p_brand").isin(brands))
    parts = [b for b in part_tbl.iter_batches(batch_size=65536,
                                              batch_format="pyarrow")
             if b.num_rows > 0]
    if parts:
        pt = pa.concat_tables(parts).combine_chunks()
        pk = pt["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pb = np.array(pt["p_brand"].to_pylist(), object)
        psz = pt["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        # per-part per-CLAUSE dim matrix: a part can satisfy SEVERAL
        # clauses' brand+size tests (two clauses may share a brand with
        # different size ranges) — the fact probe ORs across columns
        dim_ok = np.stack([(pb == b) & (psz >= slo) & (psz <= shi)
                           for b, slo, shi, _, _ in clauses], axis=1)
        any_ok = dim_ok.any(axis=1)         # dimension prune
        pk, pb, dim_ok = pk[any_ok], pb[any_ok], dim_ok[any_ok]
        order = np.argsort(pk, kind="stable")
        pk, pb, dim_ok = pk[order], pb[order], dim_ok[order]
        # brand as an int code for the probe's tiny group pass
        ubrands, bcode = np.unique(pb, return_inverse=True)
    else:
        pk = np.empty(0, np.int64)
        dim_ok = np.empty((0, len(clauses)), bool)
        ubrands, bcode = np.empty(0, object), np.empty(0, np.int64)
    dim_ref = ray.put((pk, bcode, dim_ok, ubrands))
    qty_rng = np.array([(c[3], c[4]) for c in clauses], np.int64)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"])

    def probe(t: pa.Table) -> pa.Table:
        keys, codes, dok, ub = ray.get(dim_ref)
        if t.num_rows == 0 or len(keys) == 0:
            return out_schema.empty_table()
        lk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keys, lk)
        pos_c = np.minimum(pos, len(keys) - 1)
        matched = keys[pos_c] == lk
        qty = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # OR-of-ANDs in one vectorized pass per clause: a row qualifies
        # if SOME clause's part test (precomputed column) AND its qty
        # bound both hold — rows qualifying via several clauses still
        # count once (it's one OR, not a union of joins)
        keep = np.zeros(len(lk), bool)
        for ci in range(dok.shape[1]):
            keep |= (dok[pos_c, ci] & (qty >= qty_rng[ci, 0])
                     & (qty <= qty_rng[ci, 1]))
        keep &= matched
        if not keep.any():
            return out_schema.empty_table()
        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
            * (1 - t["l_discount"].to_numpy(zero_copy_only=False)[keep])
            * 100 + 0.5).astype(np.int64)
        kc = codes[pos_c[keep]]             # the part's OWN brand
        order = np.argsort(kc, kind="stable")
        kc, cents = kc[order], cents[order]
        starts = np.flatnonzero(group_starts(kc))
        return pa.table({
            "p_brand": pa.array([ub[c] for c in kc[starts]],
                                pa.string()),
            "revenue_cents": pa.array(np.add.reduceat(cents, starts)),
            "n_rows": pa.array(np.diff(np.append(starts, len(kc)))
                               .astype(np.int64))}, schema=out_schema)

    from ..functions.groups import partitioned_group_map_arrow

    partials = line.map_batches(probe, batch_format="pyarrow",
                                zero_copy_batch=True)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        br = t["p_brand"].to_numpy(zero_copy_only=False)
        order = np.argsort(br, kind="stable")
        br = br[order]
        starts = np.flatnonzero(group_starts(br))
        cols = {"p_brand": pa.array(br[starts], pa.string())}
        for c in ("revenue_cents", "n_rows"):
            cols[c] = pa.array(np.add.reduceat(
                t[c].to_numpy(zero_copy_only=False)[order], starts))
        return pa.table(cols, schema=out_schema)

    return partitioned_group_map_arrow(partials, ["p_brand"], final, 2,
                                       out_schema=out_schema)


Q16_EXCLUDE_BRAND = "Brand#5"
Q16_EXCLUDE_TYPE = "PROMO"
Q16_SIZES = (1, 3, 5, 7, 9)


def supplier_part_variety(sf_dir: str,
                          exclude_brand: str = Q16_EXCLUDE_BRAND,
                          exclude_type: str = Q16_EXCLUDE_TYPE,
                          sizes: tuple[int, ...] = Q16_SIZES
                          ) -> ray.data.Dataset:
    """(p_brand, p_type, p_size, supplier_cnt) — TPC-H Q16 shape:
    DISTINCT-PAIR REDUCTION + GROUPED COUNT-DISTINCT. The synthetic
    schema has no partsupp, so the supplier-part relation is the
    DISTINCT (l_partkey, l_suppkey) pairs observed in lineitem.

    One shuffle, partitioned BY SUPPKEY: all pairs of a supplier
    co-locate, so after the per-partition pair-dedup each
    (brand, type, size, suppkey) combination exists in exactly one
    partition — per-partition distinct group-supplier counts are
    globally correct partials, merged in a final O(groups x
    partitions) pass. Part attributes ride a pruned broadcast; the
    'complaint suppliers' NOT-IN side (s_suppkey %% 4 == 0 here —
    no s_comment in the schema) is an in-probe anti-mask, never a
    join. Per-batch pair-dedup bounds what the shuffle moves."""
    from ..functions.groups import partitioned_group_map_arrow

    pair_schema = pa.schema([("pkey", pa.int64()), ("skey", pa.int64())])
    out_schema = pa.schema([("p_brand", pa.string()),
                            ("p_type", pa.string()),
                            ("p_size", pa.int64()),
                            ("supplier_cnt", pa.int64())])

    # pruned part dimension broadcast: key -> (brand, type, size)
    part_tbl = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
        filter=((pc.field("p_brand") != pc.scalar(exclude_brand))
                & (pc.field("p_type") != pc.scalar(exclude_type))
                & pc.field("p_size").isin(list(sizes))))
    parts = [b for b in part_tbl.iter_batches(batch_size=65536,
                                              batch_format="pyarrow")
             if b.num_rows > 0]
    if parts:
        pt = pa.concat_tables(parts).combine_chunks()
        mask = (pc.and_(
            pc.and_(pc.invert(pc.equal(pt["p_brand"], exclude_brand)),
                    pc.invert(pc.equal(pt["p_type"], exclude_type))),
            pc.is_in(pt["p_size"].cast(pa.int64()),
                     value_set=pa.array(list(sizes), pa.int64()))))
        pt = pt.filter(mask.combine_chunks())
        pk = pt["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(pk, kind="stable")
        pk = pk[order]
        pbrand = np.array(pt["p_brand"].to_pylist(), object)[order]
        ptype = np.array(pt["p_type"].to_pylist(), object)[order]
        psize = pt["p_size"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[order]
        # triple id: several parts can share (brand,type,size) — a
        # supplier covering two of them must still count ONCE, so the
        # distinct runs on the triple, not the part
        trip = np.array([f"{b}|{t}|{s}" for b, t, s
                         in zip(pbrand, ptype, psize)], object)
        _, first, tid = np.unique(trip, return_index=True,
                                  return_inverse=True)
        tb, tt, ts = pbrand[first], ptype[first], psize[first]
    else:
        pk = psize = np.empty(0, np.int64)
        pbrand = ptype = np.empty(0, object)
        tid = ts = np.empty(0, np.int64)
        tb = tt = np.empty(0, object)
    dim_ref = ray.put((pk, tid, tb, tt, ts))

    line = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet",
                                 columns=["l_partkey", "l_suppkey"])

    def pairs(t: pa.Table) -> pa.Table:
        keys = ray.get(dim_ref)[0]
        lk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys):
            pos = np.searchsorted(keys, lk)
            keep = keys[np.minimum(pos, len(keys) - 1)] == lk
        else:
            keep = np.zeros(len(lk), bool)
        keep &= (sk % 4) != 0               # complaint-supplier anti-mask
        lk, sk = lk[keep], sk[keep]
        # per-batch pair dedup bounds shuffle bytes
        u = np.unique(np.stack([lk, sk], axis=1), axis=0) \
            if len(lk) else np.empty((0, 2), np.int64)
        return pa.table({"pkey": pa.array(u[:, 0]),
                         "skey": pa.array(u[:, 1])}, schema=pair_schema)

    pair_stream = line.map_batches(pairs, batch_format="pyarrow",
                                   zero_copy_batch=True)

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        keys, ktid, kb, kt, ks = ray.get(dim_ref)
        pkv = t["pkey"].to_numpy(zero_copy_only=False)
        skv = t["skey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, pkv)       # every pair was pruned
        # distinct (triple, supplier): suppkey-partitioning makes this
        # globally unique here, so per-partition counts sum exactly
        gu = np.unique(np.stack([ktid[pos], skv], axis=1), axis=0)
        cnt_tid, cnt = np.unique(gu[:, 0], return_counts=True)
        return pa.table({
            "p_brand": pa.array(kb[cnt_tid], pa.string()),
            "p_type": pa.array(kt[cnt_tid], pa.string()),
            "p_size": pa.array(ks[cnt_tid]),
            "supplier_cnt": pa.array(cnt.astype(np.int64))},
            schema=out_schema)

    partials = partitioned_group_map_arrow(pair_stream, ["skey"], block,
                                           None, out_schema=out_schema)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.to_pandas()
        g = df.groupby(["p_brand", "p_type", "p_size"], sort=False,
                       as_index=False)["supplier_cnt"].sum()
        return pa.Table.from_pandas(g, schema=out_schema,
                                    preserve_index=False)

    return partitioned_group_map_arrow(
        partials, ["p_brand", "p_type", "p_size"], final, 2,
        out_schema=out_schema)


Q7_NATION_A = "NATION#01"
Q7_NATION_B = "NATION#02"
Q7_YEAR_LO = "1996-01-01"
Q7_YEAR_HI = "1998-01-01"


def nation_pair_volume(sf_dir: str, nation_a: str | None = None,
                       nation_b: str | None = None,
                       date_lo: str = Q7_YEAR_LO,
                       date_hi: str = Q7_YEAR_HI) -> ray.data.Dataset:
    """(supp_nation, cust_nation, l_year, revenue_cents) — TPC-H Q7
    shape: TWO-FACT JOIN WITH A CROSS-SIDE PAIR PREDICATE. Revenue
    shipped between two nations in either direction, by year: the
    qualifying row needs its SUPPLIER's nation (via the tiny supplier
    dim) and its CUSTOMER's nation (via orders — a second fact), and
    the (supp, cust) pair must be (A,B) or (B,A).

    Plan: supplier (tiny) broadcasts as skey→nation; customer's
    nationkey broadcasts under the byte cap onto orders inside the
    conform step, so the union-tag co-partition on orderkey ships
    orders rows as (okey, cust_nation int8) and lineitems as
    (okey, supp_nation int8, year, cents) — the pair test and the
    final (2 x 2 x years)-row aggregate happen per partition. Nation
    NAMES attach only to the tiny result. When ``nation_a``/``b``
    are None, the two lowest nationkeys present in supplier are used
    (the synthetic supplier table covers few nations)."""
    import datetime

    from ..functions.groups import (default_partitions, group_starts,
                                    partitioned_group_map_arrow)

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)

    # tiny dims, driver-side: supplier skey->nationkey and the nation
    # names (25 rows)
    sup = _collect_i64(
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_nationkey"]),
        ["s_suppkey", "s_nationkey"], 64 << 20)
    if sup is None:
        raise NotImplementedError(
            "supplier-side broadcast exceeded the byte cap; use the "
            "partitioned hash_join route (functions/joins.py)")
    skey, snat = sup
    s_order = np.argsort(skey, kind="stable")
    skey, snat = skey[s_order], snat[s_order]

    ntbl = pa.concat_tables(
        [b for b in ray.data.read_parquet(
            f"{sf_dir}/nation.parquet",
            columns=["n_nationkey", "n_name"])
         .iter_batches(batch_size=65536, batch_format="pyarrow")
         if b.num_rows > 0]).combine_chunks()
    nkeys = ntbl["n_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    nnames = dict(zip(nkeys, ntbl["n_name"].to_pylist()))

    if nation_a is None or nation_b is None:
        present = np.unique(snat)
        na_key = int(present[0]) if len(present) else -1
        # a single-nation supplier table degrades to a == b: the
        # same-nation filter then yields the oracle's empty result
        # instead of an IndexError
        nb_key = int(present[1]) if len(present) > 1 else na_key
    else:
        by_name = {v: k for k, v in nnames.items()}
        na_key, nb_key = int(by_name[nation_a]), int(by_name[nation_b])

    # customer nationkey map — O(customers) ints under the byte cap
    # (falls back to a partitioned attach only past it; the synthetic
    # and 100-TB-design case both keep customer keys far under 64 MB)
    cust = _collect_i64(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_nationkey"]),
        ["c_custkey", "c_nationkey"], 256 << 20)
    if cust is None:
        raise NotImplementedError(
            "customer-side broadcast exceeded the byte cap; use the "
            "partitioned hash_join route (functions/joins.py)")
    ckey, cnat = cust
    c_order = np.argsort(ckey, kind="stable")
    ckey, cnat = ckey[c_order], cnat[c_order]
    cust_ref = ray.put((ckey, cnat))
    sup_ref = ray.put((skey, snat))

    sup_schema = pa.schema([("okey", pa.int64()), ("side", pa.int8()),
                            ("nat", pa.int64()), ("year", pa.int64()),
                            ("cents", pa.int64())])
    agg_schema = pa.schema([("supp_nat", pa.int64()),
                            ("cust_nat", pa.int64()),
                            ("l_year", pa.int64()),
                            ("revenue_cents", pa.int64())])
    out_schema = pa.schema([("supp_nation", pa.string()),
                            ("cust_nation", pa.string()),
                            ("l_year", pa.int64()),
                            ("revenue_cents", pa.int64())])

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey"])

    def conform_orders(t: pa.Table) -> pa.Table:
        ck, cn = ray.get(cust_ref)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        oc = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(ck, oc)
        nat = cn[np.minimum(pos, len(ck) - 1)] if len(ck) else \
            np.zeros(len(oc), np.int64)
        # only orders of customers in {A,B} can qualify: prune before
        # the shuffle
        keep = (nat == na_key) | (nat == nb_key)
        n = int(keep.sum())
        return pa.table({"okey": pa.array(ok[keep]),
                         "side": pa.array(np.zeros(n, np.int8)),
                         "nat": pa.array(nat[keep]),
                         "year": pa.nulls(n, pa.int64()),
                         "cents": pa.nulls(n, pa.int64())},
                        schema=sup_schema)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"],
        filter=((pc.field("l_shipdate") >= pc.scalar(lo))
                & (pc.field("l_shipdate") < pc.scalar(hi))))

    def conform_line(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m.combine_chunks())
        sk, sn = ray.get(sup_ref)
        lk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(sk, lk)
        nat = sn[np.minimum(pos, len(sk) - 1)] if len(sk) else \
            np.zeros(len(lk), np.int64)
        keep = (nat == na_key) | (nat == nb_key)
        years = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[Y]").astype(np.int64)[keep] + 1970
        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
            * (1 - t["l_discount"].to_numpy(zero_copy_only=False)[keep])
            * 100 + 0.5).astype(np.int64)
        n = int(keep.sum())
        return pa.table({
            "okey": pa.array(t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)[keep]),
            "side": pa.array(np.ones(n, np.int8)),
            "nat": pa.array(nat[keep]), "year": pa.array(years),
            "cents": pa.array(cents)}, schema=sup_schema)

    both = (orders.map_batches(conform_orders, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(line.map_batches(conform_line, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        okey = t["okey"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        nat = t["nat"].to_numpy(zero_copy_only=False)
        omask = side == 0
        o_order = np.argsort(okey[omask], kind="stable")
        ok, onat = okey[omask][o_order], nat[omask][o_order]
        lmask = ~omask
        lk = okey[lmask]
        if len(lk) == 0 or len(ok) == 0:
            return agg_schema.empty_table()
        pos = np.searchsorted(ok, lk)
        pos_c = np.minimum(pos, len(ok) - 1)
        matched = ok[pos_c] == lk
        cn = onat[pos_c[matched]]
        sn_ = nat[lmask][matched]
        # either direction, never same-nation
        keep = sn_ != cn
        if not keep.any():
            return agg_schema.empty_table()
        sn_, cn = sn_[keep], cn[keep]
        # the union carries nulls on the orders side, so to_numpy gives
        # FLOAT64 (NaN) arrays — cast back to int64 after selecting the
        # non-null line rows or reduceat sums money in floats
        yr = t["year"].to_numpy(zero_copy_only=False)[lmask][matched] \
            [keep].astype(np.int64)
        cents = t["cents"].to_numpy(
            zero_copy_only=False)[lmask][matched][keep].astype(np.int64)
        comp = (sn_ * 100 + cn) * 10000 + yr
        order = np.argsort(comp, kind="stable")
        comp, cents = comp[order], cents[order]
        starts = np.flatnonzero(group_starts(comp))
        c0 = comp[starts]
        return pa.table({
            "supp_nat": pa.array(c0 // 1000000),
            "cust_nat": pa.array((c0 // 10000) % 100),
            "l_year": pa.array(c0 % 10000),
            "revenue_cents": pa.array(np.add.reduceat(cents, starts))},
            schema=agg_schema)

    partials = partitioned_group_map_arrow(both, ["okey"], block,
                                           default_partitions(),
                                           out_schema=agg_schema)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        sn_ = t["supp_nat"].to_numpy(zero_copy_only=False)
        cn = t["cust_nat"].to_numpy(zero_copy_only=False)
        yr = t["l_year"].to_numpy(zero_copy_only=False)
        cents = t["revenue_cents"].to_numpy(zero_copy_only=False)
        comp = (sn_ * 100 + cn) * 10000 + yr
        order = np.argsort(comp, kind="stable")
        comp, cents = comp[order], cents[order]
        starts = np.flatnonzero(group_starts(comp))
        c0 = comp[starts]
        return pa.table({
            "supp_nation": pa.array([nnames[int(k)] for k
                                     in c0 // 1000000], pa.string()),
            "cust_nation": pa.array([nnames[int(k)] for k
                                     in (c0 // 10000) % 100],
                                    pa.string()),
            "l_year": pa.array(c0 % 10000),
            "revenue_cents": pa.array(np.add.reduceat(cents, starts))},
            schema=out_schema)

    return partitioned_group_map_arrow(partials,
                                       ["supp_nat", "cust_nat", "l_year"],
                                       final, 2, out_schema=out_schema)


Q2_TYPE = "STANDARD"


def min_unit_cost_supplier(sf_dir: str,
                           p_type: str = Q2_TYPE) -> ray.data.Dataset:
    """(p_partkey, min_unit_milli, s_suppkey, s_name) — TPC-H Q2
    shape: GROUPWISE ARGMIN + JOIN-BACK. For each part of one type,
    the supplier offering the lowest observed unit price (the
    synthetic schema has no partsupp, so the offer relation is
    lineitem's (partkey, suppkey, extendedprice, quantity) facts).

    The unit price is an exact integer — ``floor(cents * 1000 /
    qty)`` in integer arithmetic (milli-cents per unit) — so argmin
    and its tie rule (lowest suppkey) are bit-stable. One hash
    shuffle on partkey; each partition lexsorts (pkey, unit, skey)
    and takes segment heads — O(parts) rows out, supplier names
    attach to the tiny result only."""
    from ..functions.groups import (partitioned_group_map_arrow,
                                    segmented_rank)
    from ..functions.joins import broadcast_join

    sup_schema = pa.schema([("pkey", pa.int64()), ("unit", pa.int64()),
                            ("skey", pa.int64())])
    agg_schema = pa.schema([("p_partkey", pa.int64()),
                            ("min_unit_milli", pa.int64()),
                            ("s_suppkey", pa.int64())])
    out_schema = pa.schema([("p_partkey", pa.int64()),
                            ("min_unit_milli", pa.int64()),
                            ("s_suppkey", pa.int64()),
                            ("s_name", pa.string())])

    # pruned part-key broadcast (one type only)
    part_tbl = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"],
        filter=(pc.field("p_type") == pc.scalar(p_type)))
    parts = [b for b in part_tbl.iter_batches(batch_size=65536,
                                              batch_format="pyarrow")
             if b.num_rows > 0]
    pk = np.sort(pa.concat_tables(parts)["p_partkey"]
                 .to_numpy(zero_copy_only=False).astype(np.int64)) \
        if parts else np.empty(0, np.int64)
    pk_ref = ray.put(pk)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice",
                 "l_quantity"])

    def offers(t: pa.Table) -> pa.Table:
        keys = ray.get(pk_ref)
        lk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keys) == 0:
            return sup_schema.empty_table()
        pos = np.searchsorted(keys, lk)
        keep = keys[np.minimum(pos, len(keys) - 1)] == lk
        cents = np.floor(t["l_extendedprice"]
                         .to_numpy(zero_copy_only=False)[keep]
                         * 100 + 0.5).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)[keep] \
            .astype(np.int64)
        unit = cents * 1000 // qty          # exact integer milli-cents
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)[keep] \
            .astype(np.int64)
        # in-batch combiner: keep only each (pkey,skey)'s best offer? —
        # argmin is decomposable per (pkey): keep the per-batch argmin
        # per pkey to bound shuffle bytes
        lkk = lk[keep]
        order = np.lexsort((sk, unit, lkk))
        lkk, unit, sk = lkk[order], unit[order], sk[order]
        starts = np.flatnonzero(group_starts(lkk))
        return pa.table({"pkey": pa.array(lkk[starts]),
                         "unit": pa.array(unit[starts]),
                         "skey": pa.array(sk[starts])},
                        schema=sup_schema)

    partials = line.map_batches(offers, batch_format="pyarrow",
                                zero_copy_batch=True)

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        pkv = t["pkey"].to_numpy(zero_copy_only=False)
        unit = t["unit"].to_numpy(zero_copy_only=False)
        sk = t["skey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, unit, pkv))
        pkv, unit, sk = pkv[order], unit[order], sk[order]
        starts = np.flatnonzero(group_starts(pkv))
        return pa.table({"p_partkey": pa.array(pkv[starts]),
                         "min_unit_milli": pa.array(unit[starts]),
                         "s_suppkey": pa.array(sk[starts])},
                        schema=agg_schema)

    mins = partitioned_group_map_arrow(partials, ["pkey"], block, None,
                                       out_schema=agg_schema)

    res = broadcast_join(
        mins,
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_name"]),
        "s_suppkey", "s_suppkey", "left")
    return res.map_batches(lambda t: t.select(out_schema.names)
                           .cast(out_schema), batch_format="pyarrow")


Q8_YEARS = (1996, 1997)
Q8_REGION = "ASIA"


def national_market_share(sf_dir: str, region: str = Q8_REGION,
                          years: tuple[int, int] = Q8_YEARS
                          ) -> ray.data.Dataset:
    """(l_year, share_bp, nation_cents, total_cents) — TPC-H Q8
    shape: RATIO OF CONDITIONAL SUMS. Among revenue sold to customers
    of one region, the share (basis points, integer floor division —
    bit-stable) contributed by suppliers of ONE nation, per ship
    year. The share nation is the lowest supplier nationkey inside
    the region, derived from data so every scale picks the same one.

    Joins follow the q7 tiering: supplier nation and the region's
    nation set broadcast tiny; the customer → nation map broadcasts
    under the byte cap onto orders pre-shuffle; one orderkey
    co-partition carries (cust-in-region) x (supp nation, year,
    cents); partials are (year, nation_cents, total_cents) — O(years)
    rows per partition."""
    import datetime

    from ..functions.groups import (default_partitions, group_starts,
                                    partitioned_group_map_arrow)

    lo = datetime.datetime.fromisoformat(f"{years[0]}-01-01")
    hi = datetime.datetime.fromisoformat(f"{years[1] + 1}-01-01")

    # region nation set + the share nation (lowest supplier nation in
    # region) — all tiny driver-side reads
    ntbl = pa.concat_tables(
        [b for b in ray.data.read_parquet(
            f"{sf_dir}/nation.parquet").iter_batches(
                batch_size=65536, batch_format="pyarrow")
         if b.num_rows > 0]).combine_chunks()
    rtbl = pa.concat_tables(
        [b for b in ray.data.read_parquet(
            f"{sf_dir}/region.parquet").iter_batches(
                batch_size=65536, batch_format="pyarrow")
         if b.num_rows > 0]).combine_chunks()
    rkey = rtbl.filter(pc.equal(rtbl["r_name"], region))["r_regionkey"][0].as_py()
    region_nations = np.sort(
        ntbl.filter(pc.equal(ntbl["n_regionkey"], rkey))["n_nationkey"]
        .to_numpy(zero_copy_only=False).astype(np.int64))

    sup = _collect_i64(
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_nationkey"]),
        ["s_suppkey", "s_nationkey"], 64 << 20)
    if sup is None:
        raise NotImplementedError(
            "supplier-side broadcast exceeded the byte cap; use the "
            "partitioned hash_join route (functions/joins.py)")
    skey, snat = sup
    s_order = np.argsort(skey, kind="stable")
    skey, snat = skey[s_order], snat[s_order]
    in_region = snat[np.isin(snat, region_nations)]
    share_nation = int(np.min(in_region)) if len(in_region) else -1
    sup_ref = ray.put((skey, snat))

    cust = _collect_i64(
        ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_nationkey"]),
        ["c_custkey", "c_nationkey"], 256 << 20)
    if cust is None:
        raise NotImplementedError(
            "customer-side broadcast exceeded the byte cap; use the "
            "partitioned hash_join route (functions/joins.py)")
    ckey, cnat = cust
    c_order = np.argsort(ckey, kind="stable")
    ckey, cnat = ckey[c_order], cnat[c_order]
    cust_ref = ray.put((ckey, cnat))
    rn_ref = ray.put(region_nations)

    sup_schema = pa.schema([("okey", pa.int64()), ("side", pa.int8()),
                            ("year", pa.int64()), ("cents", pa.int64()),
                            ("is_nation", pa.int8())])
    agg_schema = pa.schema([("l_year", pa.int64()),
                            ("nation_cents", pa.int64()),
                            ("total_cents", pa.int64())])
    out_schema = pa.schema([("l_year", pa.int64()),
                            ("share_bp", pa.int64()),
                            ("nation_cents", pa.int64()),
                            ("total_cents", pa.int64())])

    orders = ray.data.read_parquet(f"{sf_dir}/orders.parquet",
                                   columns=["o_orderkey", "o_custkey"])

    def conform_orders(t: pa.Table) -> pa.Table:
        ck, cn = ray.get(cust_ref)
        rn = ray.get(rn_ref)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        oc = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(ck, oc)
        nat = cn[np.minimum(pos, len(ck) - 1)] if len(ck) else \
            np.zeros(len(oc), np.int64)
        keep = np.isin(nat, rn)             # region prune pre-shuffle
        n = int(keep.sum())
        return pa.table({"okey": pa.array(ok[keep]),
                         "side": pa.array(np.zeros(n, np.int8)),
                         "year": pa.nulls(n, pa.int64()),
                         "cents": pa.nulls(n, pa.int64()),
                         "is_nation": pa.nulls(n, pa.int8())},
                        schema=sup_schema)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"],
        filter=((pc.field("l_shipdate") >= pc.scalar(lo))
                & (pc.field("l_shipdate") < pc.scalar(hi))))

    def conform_line(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)))
        t = t.filter(m.combine_chunks())
        sk, sn = ray.get(sup_ref)
        lk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(sk, lk)
        nat = sn[np.minimum(pos, len(sk) - 1)] if len(sk) else \
            np.zeros(len(lk), np.int64)
        years = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1 - t["l_discount"].to_numpy(zero_copy_only=False))
            * 100 + 0.5).astype(np.int64)
        return pa.table({
            "okey": pa.array(t["l_orderkey"].to_numpy(
                zero_copy_only=False).astype(np.int64)),
            "side": pa.array(np.ones(t.num_rows, np.int8)),
            "year": pa.array(years), "cents": pa.array(cents),
            "is_nation": pa.array((nat == share_nation)
                                  .astype(np.int8))}, schema=sup_schema)

    both = (orders.map_batches(conform_orders, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(line.map_batches(conform_line, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        okey = t["okey"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        ok = np.sort(okey[side == 0])       # region-customer orders
        lmask = side == 1
        lk = okey[lmask]
        if len(lk) == 0 or len(ok) == 0:
            return agg_schema.empty_table()
        pos = np.searchsorted(ok, lk)
        matched = ok[np.minimum(pos, len(ok) - 1)] == lk
        # null-carrying union columns arrive as float64 — cast back to
        # int64 after selection so the money sums stay integer-exact
        yr = t["year"].to_numpy(zero_copy_only=False)[lmask][matched] \
            .astype(np.int64)
        cents = t["cents"].to_numpy(zero_copy_only=False)[lmask] \
            [matched].astype(np.int64)
        isn = t["is_nation"].to_numpy(
            zero_copy_only=False)[lmask][matched].astype(np.int64)
        order = np.argsort(yr, kind="stable")
        yr, cents, isn = yr[order], cents[order], isn[order]
        starts = np.flatnonzero(group_starts(yr))
        return pa.table({
            "l_year": pa.array(yr[starts]),
            "nation_cents": pa.array(np.add.reduceat(cents * isn, starts)),
            "total_cents": pa.array(np.add.reduceat(cents, starts))},
            schema=agg_schema)

    partials = partitioned_group_map_arrow(both, ["okey"], block,
                                           default_partitions(),
                                           out_schema=agg_schema)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        yr = t["l_year"].to_numpy(zero_copy_only=False)
        order = np.argsort(yr, kind="stable")
        yr = yr[order]
        starts = np.flatnonzero(group_starts(yr))
        nc = np.add.reduceat(
            t["nation_cents"].to_numpy(zero_copy_only=False)[order],
            starts)
        tc = np.add.reduceat(
            t["total_cents"].to_numpy(zero_copy_only=False)[order],
            starts)
        share = np.where(tc > 0, nc * 10000 // np.maximum(tc, 1), 0)
        return pa.table({"l_year": pa.array(yr[starts]),
                         "share_bp": pa.array(share),
                         "nation_cents": pa.array(nc),
                         "total_cents": pa.array(tc)},
                        schema=out_schema)

    return partitioned_group_map_arrow(partials, ["l_year"], final, 2,
                                       out_schema=out_schema)


def waiting_suppliers(sf_dir: str) -> ray.data.Dataset:
    """(s_name, numwait) — TPC-H Q21 shape: GROUPED EXISTS / NOT
    EXISTS over the SAME fact. For finished orders ('F'), count per
    supplier the orders where that supplier was the ONLY one with a
    returned line ('R') while the order had other suppliers — the
    reference's commit/receipt-date lateness predicate adapted to the
    synthetic schema's returnflag.

    Both EXISTS subqueries collapse into one orderkey co-partition:
    each partition holds every line of its orders, so "has another
    supplier" and "no OTHER supplier returned" are two vectorized
    distinct-pair counts per order — no self-join row expansion,
    O(suppliers) partials out."""
    from ..functions.groups import (default_partitions, group_starts,
                                    partitioned_group_map_arrow)
    from ..functions.joins import broadcast_join

    sup_schema = pa.schema([("okey", pa.int64()), ("side", pa.int8()),
                            ("skey", pa.int64()), ("is_r", pa.int8())])
    agg_schema = pa.schema([("s_suppkey", pa.int64()),
                            ("numwait", pa.int64())])
    out_schema = pa.schema([("s_name", pa.string()),
                            ("numwait", pa.int64())])

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus"],
        filter=(pc.field("o_orderstatus") == pc.scalar("F")))

    def conform_orders(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderstatus"], "F").combine_chunks())
        return pa.table({"okey": t["o_orderkey"].cast(pa.int64()),
                         "side": pa.array(np.zeros(t.num_rows, np.int8)),
                         "skey": pa.nulls(t.num_rows, pa.int64()),
                         "is_r": pa.nulls(t.num_rows, pa.int8())},
                        schema=sup_schema)

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_returnflag"])

    def conform_line(t: pa.Table) -> pa.Table:
        # per-batch distinct (okey, skey, is_r) triples bound the
        # shuffle (line counts collapse; EXISTS needs membership only)
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        isr = pc.equal(t["l_returnflag"], "R").to_numpy(
            zero_copy_only=False).astype(np.int8)
        u = np.unique(np.stack([ok, sk, isr.astype(np.int64)], axis=1),
                      axis=0)
        return pa.table({"okey": pa.array(u[:, 0]),
                         "side": pa.array(np.ones(len(u), np.int8)),
                         "skey": pa.array(u[:, 1]),
                         "is_r": pa.array(u[:, 2].astype(np.int8))},
                        schema=sup_schema)

    both = (orders.map_batches(conform_orders, batch_format="pyarrow",
                               zero_copy_batch=True)
            .union(line.map_batches(conform_line, batch_format="pyarrow",
                                    zero_copy_batch=True)))

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        okey = t["okey"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        fkeys = np.unique(okey[side == 0])
        lmask = side == 1
        ok = okey[lmask]
        keep = np.isin(ok, fkeys)           # finished orders only
        if not keep.any():
            return agg_schema.empty_table()
        ok = ok[keep]
        # null-carrying union columns arrive as float64 — cast back to
        # int64 after selecting the line rows
        sk = t["skey"].to_numpy(zero_copy_only=False)[lmask][keep] \
            .astype(np.int64)
        isr = t["is_r"].to_numpy(zero_copy_only=False)[lmask][keep] \
            .astype(np.int64)
        # distinct suppliers per order (any flag)
        pairs = np.unique(np.stack([ok, sk], axis=1), axis=0)
        o_all, n_all = np.unique(pairs[:, 0], return_counts=True)
        # distinct R-suppliers per order
        rp = np.unique(np.stack([ok[isr == 1], sk[isr == 1]], axis=1),
                       axis=0)
        if len(rp) == 0:
            return agg_schema.empty_table()
        o_r, n_r = np.unique(rp[:, 0], return_counts=True)
        # qualifying orders: >=2 suppliers total, EXACTLY one R supplier
        pos = np.searchsorted(o_all, o_r)
        good = (n_r == 1) & (n_all[pos] >= 2)
        good_orders = o_r[good]
        # the single R supplier of each qualifying order
        take = np.isin(rp[:, 0], good_orders)
        winners = rp[take, 1]
        if len(winners) == 0:
            return agg_schema.empty_table()
        u, c = np.unique(winners, return_counts=True)
        return pa.table({"s_suppkey": pa.array(u),
                         "numwait": pa.array(c.astype(np.int64))},
                        schema=agg_schema)

    partials = partitioned_group_map_arrow(both, ["okey"], block,
                                           default_partitions(),
                                           out_schema=agg_schema)

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        sk = t["s_suppkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(sk, kind="stable")
        sk = sk[order]
        starts = np.flatnonzero(group_starts(sk))
        return pa.table({
            "s_suppkey": pa.array(sk[starts]),
            "numwait": pa.array(np.add.reduceat(
                t["numwait"].to_numpy(zero_copy_only=False)[order],
                starts))}, schema=agg_schema)

    per_supp = partitioned_group_map_arrow(partials, ["s_suppkey"],
                                           merge, 2,
                                           out_schema=agg_schema)
    named = broadcast_join(
        per_supp,
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_name"]),
        "s_suppkey", "s_suppkey", "left")
    return named.map_batches(lambda t: t.select(out_schema.names)
                             .cast(out_schema), batch_format="pyarrow")


def important_parts(sf_dir: str, num: int = 12, den: int = 10
                    ) -> ray.data.Dataset:
    """(p_partkey, value_cents) — TPC-H Q11 shape: AGGREGATE +
    HAVING AGAINST A GLOBAL SCALAR OF THE SAME AGGREGATE. Parts whose
    total lineitem value exceeds ``num/den`` x the mean per-part value
    (no partsupp in the synthetic schema, so value = summed
    extendedprice cents per part; a mean-relative threshold stays
    meaningful at every scale, unlike Q11's fixed fraction).

    One partkey shuffle builds the O(parts) aggregate; the global
    (total, count) reduces from the partials driver-side (tiny); the
    filter re-streams the AGGREGATE, never the fact table. The
    comparison is integer cross-multiplication: value * n * den >
    total * num."""
    from ..functions.groups import partitioned_sum

    agg_schema = pa.schema([("p_partkey", pa.int64()),
                            ("value_cents", pa.int64())])

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.floor(t["l_extendedprice"]
                         .to_numpy(zero_copy_only=False) * 100
                         + 0.5).astype(np.int64)
        order = np.argsort(pk, kind="stable")
        pk, cents = pk[order], cents[order]
        starts = np.flatnonzero(group_starts(pk))
        return pa.table({"p_partkey": pa.array(pk[starts]),
                         "value_cents": pa.array(
                             np.add.reduceat(cents, starts))},
                        schema=agg_schema)

    per_part = partitioned_sum(
        line.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["p_partkey"], "value_cents", None, agg_schema,
        out_name="value_cents").materialize()

    total = 0
    n_parts = 0
    for b in per_part.iter_batches(batch_size=65536,
                                   batch_format="pyarrow"):
        if b.num_rows == 0:
            continue
        total += int(pc.sum(b["value_cents"]).as_py() or 0)
        n_parts += b.num_rows

    def keep(t: pa.Table) -> pa.Table:
        v = t["value_cents"].to_numpy(zero_copy_only=False)
        # Python ints avoid int64 overflow on value * n * den
        mask = np.array([int(x) * n_parts * den > total * num
                         for x in v], bool) if t.num_rows else \
            np.empty(0, bool)
        return t.filter(pa.array(mask))

    return per_part.map_batches(keep, batch_format="pyarrow",
                                zero_copy_batch=True)


Q20_DATE_LO = "1996-01-01"
Q20_DATE_HI = "1997-01-01"


def concentrated_suppliers(sf_dir: str, date_lo: str = Q20_DATE_LO,
                           date_hi: str = Q20_DATE_HI
                           ) -> ray.data.Dataset:
    """(s_suppkey, s_name) — TPC-H Q20 shape: COMPOSITE-KEY
    TWO-WINDOW COMPARISON + SEMI-COLLAPSE. Suppliers having some part
    for which MORE than half of all quantity they ever shipped of it
    went out inside one year (Q20's availqty > ½·shipped predicate
    re-expressed on the observable two-window split — the synthetic
    schema has no partsupp).

    One shuffle on the composite (suppkey, partkey): per-batch
    combiner emits (key, qty_window, qty_total) partials, each
    partition merges and tests ``2*q_win > q_total``, collapses to
    DISTINCT suppkeys (the EXISTS), and only the tiny supplier set
    leaves the shuffle. Names attach by broadcast."""
    import datetime

    from ..functions.groups import partitioned_group_map_arrow
    from ..functions.joins import broadcast_join

    lo = datetime.datetime.fromisoformat(date_lo)
    hi = datetime.datetime.fromisoformat(date_hi)
    part_schema = pa.schema([("skey", pa.int64()), ("pkey", pa.int64()),
                             ("q_win", pa.int64()),
                             ("q_all", pa.int64())])
    agg_schema = pa.schema([("s_suppkey", pa.int64())])
    out_schema = pa.schema([("s_suppkey", pa.int64()),
                            ("s_name", pa.string())])

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_partkey", "l_quantity", "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        inwin = ((sd >= np.datetime64(lo)) & (sd < np.datetime64(hi))) \
            .astype(np.int64)
        order = np.lexsort((pk, sk))
        sk, pk, qty, inwin = sk[order], pk[order], qty[order], inwin[order]
        starts = np.flatnonzero(group_starts(sk, pk))
        return pa.table({
            "skey": pa.array(sk[starts]), "pkey": pa.array(pk[starts]),
            "q_win": pa.array(np.add.reduceat(qty * inwin, starts)),
            "q_all": pa.array(np.add.reduceat(qty, starts))},
            schema=part_schema)

    partials = line.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)

    def block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        sk = t["skey"].to_numpy(zero_copy_only=False)
        pk = t["pkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, sk))
        sk, pk = sk[order], pk[order]
        qw = t["q_win"].to_numpy(zero_copy_only=False)[order]
        qa = t["q_all"].to_numpy(zero_copy_only=False)[order]
        starts = np.flatnonzero(group_starts(sk, pk))
        q_win = np.add.reduceat(qw, starts)
        q_all = np.add.reduceat(qa, starts)
        hit = 2 * q_win > q_all
        return pa.table({"s_suppkey": pa.array(
            np.unique(sk[starts][hit]))}, schema=agg_schema)

    hits = partitioned_group_map_arrow(partials, ["skey", "pkey"],
                                       block, None,
                                       out_schema=agg_schema)

    def dedup(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return agg_schema.empty_table()
        return pa.table({"s_suppkey": pa.array(np.unique(
            t["s_suppkey"].to_numpy(zero_copy_only=False)))},
            schema=agg_schema)

    # a supplier can hit in several partitions (different parts):
    # one more tiny distinct pass
    uniq = partitioned_group_map_arrow(hits, ["s_suppkey"], dedup, 2,
                                       out_schema=agg_schema)
    named = broadcast_join(
        uniq,
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_name"]),
        "s_suppkey", "s_suppkey", "left")
    return named.map_batches(lambda t: t.select(out_schema.names)
                             .cast(out_schema), batch_format="pyarrow")


Q9_NAME_SUBSTR = "widget"


def product_type_profit(sf_dir: str,
                        name_substr: str = Q9_NAME_SUBSTR
                        ) -> ray.data.Dataset:
    """(nation, o_year, profit_cents) — TPC-H Q9 shape: TWO-DIMENSION
    ATTACH + two-attribute rollup. Profit on parts whose name contains
    ``name_substr``, by supplier nation and ship year (the synthetic
    schema has no partsupp, so profit = discounted revenue without the
    supplycost term; and no orders join is needed since the grain is
    the ship year).

    Both dimensions broadcast tiny: the name-filtered part KEY SET
    (sorted int64 membership probe) and supplier→nation (searchsorted
    attach). The fact stream never shuffles — partials collapse to
    O(nations x years) rows per batch, merged in one small pass."""
    from ..functions.groups import partitioned_group_map_arrow

    part_tbl = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"],
        filter=pc.match_substring(pc.field("p_name"), name_substr))
    parts = [b for b in part_tbl.iter_batches(batch_size=65536,
                                              batch_format="pyarrow")
             if b.num_rows > 0]
    pk = np.sort(pa.concat_tables(parts)["p_partkey"]
                 .to_numpy(zero_copy_only=False).astype(np.int64)) \
        if parts else np.empty(0, np.int64)
    pk_ref = ray.put(pk)

    sup = _collect_i64(
        ray.data.read_parquet(f"{sf_dir}/supplier.parquet",
                              columns=["s_suppkey", "s_nationkey"]),
        ["s_suppkey", "s_nationkey"], 64 << 20)
    if sup is None:
        raise NotImplementedError(
            "supplier-side broadcast exceeded the byte cap; use the "
            "partitioned hash_join route (functions/joins.py)")
    skey, snat = sup
    s_order = np.argsort(skey, kind="stable")
    sup_ref = ray.put((skey[s_order], snat[s_order]))

    ntbl = pa.concat_tables(
        [b for b in ray.data.read_parquet(
            f"{sf_dir}/nation.parquet",
            columns=["n_nationkey", "n_name"])
         .iter_batches(batch_size=65536, batch_format="pyarrow")
         if b.num_rows > 0]).combine_chunks()
    nnames = dict(zip(ntbl["n_nationkey"].to_numpy(zero_copy_only=False)
                      .astype(np.int64),
                      ntbl["n_name"].to_pylist()))

    agg_schema = pa.schema([("nat", pa.int64()), ("o_year", pa.int64()),
                            ("profit_cents", pa.int64())])
    out_schema = pa.schema([("nation", pa.string()),
                            ("o_year", pa.int64()),
                            ("profit_cents", pa.int64())])

    line = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"])

    def partial(t: pa.Table) -> pa.Table:
        keys = ray.get(pk_ref)
        if t.num_rows == 0 or len(keys) == 0:
            return agg_schema.empty_table()
        lk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keys, lk)
        keep = keys[np.minimum(pos, len(keys) - 1)] == lk
        if not keep.any():
            return agg_schema.empty_table()
        sk, sn = ray.get(sup_ref)
        lsk = t["l_suppkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)[keep]
        nat = sn[np.minimum(np.searchsorted(sk, lsk), len(sk) - 1)]
        yr = t["l_shipdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[Y]").astype(np.int64)[keep] + 1970
        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
            * (1 - t["l_discount"].to_numpy(zero_copy_only=False)[keep])
            * 100 + 0.5).astype(np.int64)
        comp = nat * 10000 + yr
        order = np.argsort(comp, kind="stable")
        comp, cents = comp[order], cents[order]
        starts = np.flatnonzero(group_starts(comp))
        c0 = comp[starts]
        return pa.table({"nat": pa.array(c0 // 10000),
                         "o_year": pa.array(c0 % 10000),
                         "profit_cents": pa.array(
                             np.add.reduceat(cents, starts))},
                        schema=agg_schema)

    partials = line.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        comp = (t["nat"].to_numpy(zero_copy_only=False) * 10000
                + t["o_year"].to_numpy(zero_copy_only=False))
        cents = t["profit_cents"].to_numpy(zero_copy_only=False)
        order = np.argsort(comp, kind="stable")
        comp, cents = comp[order], cents[order]
        starts = np.flatnonzero(group_starts(comp))
        c0 = comp[starts]
        return pa.table({
            "nation": pa.array([nnames[int(k)] for k in c0 // 10000],
                               pa.string()),
            "o_year": pa.array(c0 % 10000),
            "profit_cents": pa.array(np.add.reduceat(cents, starts))},
            schema=out_schema)

    return partitioned_group_map_arrow(partials, ["nat", "o_year"],
                                       final, 2, out_schema=out_schema)
