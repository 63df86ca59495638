//! The sixteen reproduction experiments (DESIGN.md §5).
//!
//! Each function prints one or more paper-style tables to stdout; the
//! recorded full-scale output lives in `experiments_full.txt` and is
//! analyzed in `EXPERIMENTS.md`. All page/node counters are deterministic
//! for a fixed `NNQ_SCALE`; only wall-clock columns vary run to run.

use crate::datasets::Dataset;
use crate::harness::{
    build_tree, default_build, measure, measure_knn, queries_for, BuildMethod, BuiltTree,
    SegmentRefiner, QUERY_POOL_FRAMES,
};
use crate::scaled;
use crate::table::{f, Table};
use nnq_core::{best_first_knn, AblOrdering, IncrementalNn, MbrRefiner, NnOptions, NnSearch};
use nnq_rtree::{BulkMethod, RTree, RTreeConfig};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0xBEEF;

/// E1 — pages accessed vs k on the three standard datasets.
///
/// Claim: the branch-and-bound search touches a tiny, slowly-growing
/// fraction of the tree as k goes from 1 to 25.
pub fn e1() {
    let n = scaled(100_000);
    let queries = queries_for(200, SEED);
    let ks = [1usize, 2, 5, 10, 15, 20, 25];
    let mut table = Table::new(
        format!("E1: pages accessed per kNN query (N = {n})"),
        &[
            "dataset",
            "total pages",
            "k=1",
            "k=2",
            "k=5",
            "k=10",
            "k=15",
            "k=20",
            "k=25",
        ],
    );
    for d in Dataset::standard_trio(n, SEED) {
        let built = default_build(&d);
        let total = built.tree.stats().unwrap().nodes;
        let mut row = vec![d.name.to_string(), total.to_string()];
        for &k in &ks {
            let m = measure_knn(
                &built,
                &queries,
                k,
                NnOptions::default(),
                d.segments.as_deref(),
            );
            row.push(f(m.pages, 1));
        }
        table.row(row);
    }
    table.print();
}

/// E2 — MINDIST vs MINMAXDIST ABL ordering (the paper's central
/// comparison). Claim: MINDIST ordering accesses no more (usually fewer)
/// pages on average.
pub fn e2() {
    let n = scaled(100_000);
    let queries = queries_for(200, SEED + 1);
    let ks = [1usize, 5, 10, 25];
    let mut table = Table::new(
        format!("E2: pages per query by ABL ordering (N = {n})"),
        &["dataset", "k", "MINDIST", "MINMAXDIST", "ratio"],
    );
    for d in Dataset::standard_trio(n, SEED) {
        let built = default_build(&d);
        for &k in &ks {
            let md = measure_knn(
                &built,
                &queries,
                k,
                NnOptions::with_ordering(AblOrdering::MinDist),
                d.segments.as_deref(),
            );
            let mm = measure_knn(
                &built,
                &queries,
                k,
                NnOptions::with_ordering(AblOrdering::MinMaxDist),
                d.segments.as_deref(),
            );
            table.row(vec![
                d.name.to_string(),
                k.to_string(),
                f(md.pages, 1),
                f(mm.pages, 1),
                f(mm.pages / md.pages, 2),
            ]);
        }
    }
    table.print();
}

/// E3 — pruning-strategy ablation. Claim: each strategy reduces work;
/// upward pruning (S3) does the heavy lifting; S1/S2 help mostly before
/// the first k candidates are found.
pub fn e3() {
    let n = scaled(100_000);
    let queries = queries_for(200, SEED + 2);
    let variants: [(&str, NnOptions); 4] = [
        ("none", NnOptions::no_pruning()),
        (
            "S3",
            NnOptions {
                prune_downward: false,
                prune_object: false,
                ..NnOptions::default()
            },
        ),
        (
            "S1+S3",
            NnOptions {
                prune_object: false,
                ..NnOptions::default()
            },
        ),
        ("S1+S2+S3", NnOptions::default()),
    ];
    for d in [Dataset::uniform(n, SEED), Dataset::tiger(n, SEED + 2)] {
        let built = default_build(&d);
        let mut table = Table::new(
            format!("E3: pruning ablation on {} (N = {n})", d.name),
            &[
                "strategies",
                "k",
                "nodes",
                "pruned S1",
                "pruned S2",
                "pruned S3",
                "dist comps",
            ],
        );
        for &k in &[1usize, 10] {
            for (label, opts) in &variants {
                let m = measure_knn(&built, &queries, k, *opts, d.segments.as_deref());
                table.row(vec![
                    label.to_string(),
                    k.to_string(),
                    f(m.nodes, 1),
                    f(m.pruned_downward, 1),
                    f(m.pruned_object, 1),
                    f(m.pruned_upward, 1),
                    f(m.dist_computations, 1),
                ]);
            }
        }
        table.print();
    }
}

/// E4 — scalability: pages vs dataset size. Claim: logarithmic growth.
pub fn e4() {
    let queries = queries_for(200, SEED + 3);
    let mut table = Table::new(
        "E4: pages per query vs dataset size (uniform, k = 10, STR build)",
        &["N", "height", "total pages", "pages/query", "time [µs]"],
    );
    for exp in 12..=20u32 {
        let n = scaled(1usize << exp);
        let d = Dataset::uniform(n, SEED + u64::from(exp));
        let built = build_tree(
            &d.items,
            BuildMethod::Bulk(BulkMethod::Str),
            QUERY_POOL_FRAMES,
        );
        let m = measure_knn(&built, &queries, 10, NnOptions::default(), None);
        table.row(vec![
            n.to_string(),
            built.tree.height().to_string(),
            built.tree.stats().unwrap().nodes.to_string(),
            f(m.pages, 1),
            f(m.time_us, 1),
        ]);
    }
    table.print();
}

/// E5 — buffering: physical reads vs LRU buffer size. Claim: small
/// buffers already capture the locality of the depth-first search.
pub fn e5() {
    let n = scaled(100_000);
    let d = Dataset::tiger(n, SEED + 4);
    // Build once on a shared device, then re-open under pools of varying
    // size.
    let disk = Arc::new(MemDisk::new(PAGE_SIZE));
    let build_pool = Arc::new(BufferPool::new(
        Box::new(Arc::clone(&disk)),
        QUERY_POOL_FRAMES,
    ));
    let tree = RTree::<2>::create(Arc::clone(&build_pool), RTreeConfig::default()).unwrap();
    for (mbr, rid) in &d.items {
        tree.insert(mbr, *rid).unwrap();
    }
    build_pool.flush_all().unwrap();
    let meta_page = tree.meta_page();
    let total_pages = tree.stats().unwrap().nodes + 1;
    drop(tree);
    drop(build_pool);

    let queries = queries_for(500, SEED + 4);
    let segments = d.segments.as_deref().unwrap();
    let mut table = Table::new(
        format!("E5: physical reads vs buffer size (tiger-like, N = {n}, k = 10, tree = {total_pages} pages)"),
        &["buffer [pages]", "pages/query", "physical/query", "hit rate"],
    );
    for frames in [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
        let pool = Arc::new(BufferPool::new(Box::new(Arc::clone(&disk)), frames));
        let tree = RTree::<2>::open(Arc::clone(&pool), meta_page).unwrap();
        let search = NnSearch::new(&tree);
        let refiner = SegmentRefiner { segments };
        // Warm the cache with one pass, then measure the second.
        for q in &queries {
            let _ = search.query_refined(q, 10, &refiner).unwrap();
        }
        let m = measure(&pool, &queries, |q| {
            search.query_refined(q, 10, &refiner).unwrap().1
        });
        let stats = pool.stats();
        table.row(vec![
            frames.to_string(),
            f(m.pages, 1),
            f(m.physical, 1),
            f(stats.hit_rate(), 3),
        ]);
    }
    table.print();
}

/// E6 — index vs sequential scan (the motivating comparison). Claim: the
/// branch-and-bound search wins by orders of magnitude and the gap widens
/// with N.
pub fn e6() {
    let queries = queries_for(50, SEED + 5);
    let mut table = Table::new(
        "E6: branch-and-bound vs sequential scan (uniform, k = 10)",
        &[
            "N",
            "B&B pages",
            "scan pages",
            "B&B µs",
            "scan µs",
            "speedup",
        ],
    );
    for &n in &[scaled(10_000), scaled(50_000), scaled(200_000)] {
        let d = Dataset::uniform(n, SEED + n as u64);
        let built = default_build(&d);
        let m = measure_knn(&built, &queries, 10, NnOptions::default(), None);
        let scan = measure(&built.pool, &queries, |q| {
            nnq_core::linear_scan_knn(&built.tree, q, 10, &MbrRefiner)
                .unwrap()
                .1
        });
        table.row(vec![
            n.to_string(),
            f(m.pages, 1),
            f(scan.pages, 1),
            f(m.time_us, 1),
            f(scan.time_us, 1),
            f(scan.time_us / m.time_us, 1),
        ]);
    }
    table.print();
}

/// E7 — construction method vs query cost. Claim: packed trees answer NN
/// queries at least as cheaply as dynamically built ones; R* beats
/// Guttman's splits; linear is worst.
pub fn e7() {
    let n = scaled(100_000);
    let d = Dataset::tiger(n, SEED + 6);
    let queries = queries_for(200, SEED + 6);
    let mut table = Table::new(
        format!("E7: build method vs NN cost (tiger-like, N = {n}, k = 10)"),
        &[
            "build",
            "build [ms]",
            "pages total",
            "avg fill",
            "overlap",
            "pages/query",
        ],
    );
    for method in BuildMethod::all() {
        let built = build_tree(&d.items, method, QUERY_POOL_FRAMES);
        built.tree.validate().unwrap();
        let stats = built.tree.stats().unwrap();
        let m = measure_knn(
            &built,
            &queries,
            10,
            NnOptions::default(),
            d.segments.as_deref(),
        );
        table.row(vec![
            method.label().to_string(),
            f(built.build_time.as_secs_f64() * 1e3, 0),
            stats.nodes.to_string(),
            f(stats.avg_fill, 2),
            f(stats.overlap_per_level.iter().sum::<f64>() / 1e6, 1),
            f(m.pages, 1),
        ]);
    }
    table.print();
}

/// E8 — depth-first (the paper) vs best-first vs incremental
/// (later literature). Claim: best-first reads the fewest pages; ordered
/// DFS stays close on well-built trees.
pub fn e8() {
    let n = scaled(100_000);
    let d = Dataset::tiger(n, SEED + 7);
    let built = default_build(&d);
    let segments = d.segments.as_deref().unwrap();
    let queries = queries_for(200, SEED + 7);
    let refiner = SegmentRefiner { segments };
    let mut table = Table::new(
        format!("E8: pages per query by algorithm (tiger-like, N = {n})"),
        &["k", "DFS (RKV'95)", "best-first", "incremental", "DFS/BF"],
    );
    for &k in &[1usize, 2, 5, 10, 15, 20, 25] {
        let dfs = measure_knn(&built, &queries, k, NnOptions::default(), Some(segments));
        let bf = measure(&built.pool, &queries, |q| {
            best_first_knn(&built.tree, q, k, &refiner).unwrap().1
        });
        let inc = measure(&built.pool, &queries, |q| {
            let mut it = IncrementalNn::new(&built.tree, *q, &refiner);
            for _ in 0..k {
                if it.next().is_none() {
                    break;
                }
            }
            *it.stats()
        });
        table.row(vec![
            k.to_string(),
            f(dfs.pages, 1),
            f(bf.pages, 1),
            f(inc.pages, 1),
            f(dfs.pages / bf.pages, 2),
        ]);
    }
    table.print();
}

/// E9 — page-size sweep: the paper-era question of how node capacity
/// (page size) trades fanout against per-page cost. Claim: larger pages
/// mean fewer page accesses per query but more bytes moved; the page
/// count falls roughly linearly in the fanout.
pub fn e9() {
    let n = scaled(100_000);
    let d = Dataset::uniform(n, SEED + 8);
    let queries = queries_for(200, SEED + 8);
    let mut table = Table::new(
        format!("E9: page size vs query cost (uniform, N = {n}, k = 10)"),
        &[
            "page [B]",
            "fanout",
            "height",
            "total pages",
            "pages/query",
            "KiB/query",
        ],
    );
    for page_size in [1024usize, 2048, 4096, 8192, 16384] {
        let pool = Arc::new(BufferPool::new(
            Box::new(MemDisk::new(page_size)),
            QUERY_POOL_FRAMES,
        ));
        let tree = RTree::<2>::bulk_load(
            Arc::clone(&pool),
            RTreeConfig::default(),
            d.items.clone(),
            BulkMethod::Str,
            1.0,
        )
        .unwrap();
        let search = NnSearch::new(&tree);
        let m = measure(&pool, &queries, |q| {
            search.query_with_stats(q, 10).unwrap().1
        });
        table.row(vec![
            page_size.to_string(),
            tree.max_entries().to_string(),
            tree.height().to_string(),
            tree.stats().unwrap().nodes.to_string(),
            f(m.pages, 1),
            f(m.pages * page_size as f64 / 1024.0, 1),
        ]);
    }
    table.print();
}

/// E10 — query-distribution impact: queries uniform over the world vs
/// queries drawn near the data (mirrors the paper's discussion that
/// performance depends on how queries relate to data skew). The direction
/// is workload-dependent: on road networks, data-near queries sit inside
/// towns where many sibling MBRs overlap the kNN ball, while uniform
/// queries often land in empty countryside whose large ball intersects
/// few, well-separated nodes.
pub fn e10() {
    let n = scaled(100_000);
    let mut table = Table::new(
        format!("E10: query distribution vs cost (N = {n}, k = 10)"),
        &["dataset", "uniform q pages", "data-near q pages", "ratio"],
    );
    for d in [Dataset::clustered(n, SEED + 9), Dataset::tiger(n, SEED + 9)] {
        let built = default_build(&d);
        let uniform_q = queries_for(200, SEED + 9);
        let anchors: Vec<nnq_geom::Point<2>> =
            d.items.iter().map(|(mbr, _)| mbr.center()).collect();
        let near_q = nnq_workloads::data_queries(
            200,
            &anchors,
            500.0,
            &nnq_workloads::default_bounds(),
            SEED + 9,
        );
        let mu = measure_knn(
            &built,
            &uniform_q,
            10,
            NnOptions::default(),
            d.segments.as_deref(),
        );
        let mn = measure_knn(
            &built,
            &near_q,
            10,
            NnOptions::default(),
            d.segments.as_deref(),
        );
        table.row(vec![
            d.name.to_string(),
            f(mu.pages, 1),
            f(mn.pages, 1),
            f(mu.pages / mn.pages, 2),
        ]);
    }
    table.print();
}

/// E11 — backend comparison (extension): the paper's disk R-tree vs the
/// same algorithms on an in-memory R-tree vs the kd-tree ancestor (FBF).
/// Claim: identical answers; CPU time favors the memory-resident
/// structures; the R-tree's page discipline is the price of disk
/// residency.
pub fn e11() {
    let n = scaled(100_000);
    let d = Dataset::uniform(n, SEED + 10);
    let queries = queries_for(500, SEED + 10);

    let paged = default_build(&d);
    let mem = nnq_rtree::MemRTree::<2>::new();
    for (mbr, rid) in &d.items {
        mem.insert(mbr, *rid).unwrap();
    }
    let kd_points: Vec<(nnq_geom::Point<2>, nnq_rtree::RecordId)> = d
        .items
        .iter()
        .map(|(mbr, rid)| (mbr.center(), *rid))
        .collect();
    let kd = nnq_kdtree::KdTree::build(kd_points, 16);

    let mut table = Table::new(
        format!("E11: backend comparison (uniform, N = {n})"),
        &[
            "k",
            "paged µs",
            "mem-rtree µs",
            "kd-tree µs",
            "paged nodes",
            "kd nodes",
        ],
    );
    // Warm every structure (page cache, allocator, branch predictors) so
    // the timed passes compare steady states.
    for q in &queries {
        let _ = NnSearch::new(&paged.tree).query(q, 10).unwrap();
        let _ = NnSearch::new(&mem).query(q, 10).unwrap();
        let _ = kd.knn(q, 10);
    }
    for &k in &[1usize, 10, 25] {
        let mp = measure(&paged.pool, &queries, |q| {
            NnSearch::new(&paged.tree).query_with_stats(q, k).unwrap().1
        });
        let start = Instant::now();
        let mut mem_nodes = 0u64;
        for q in &queries {
            mem_nodes += NnSearch::new(&mem)
                .query_with_stats(q, k)
                .unwrap()
                .1
                .nodes_visited;
        }
        let mem_us = start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;
        let start = Instant::now();
        let mut kd_nodes = 0u64;
        for q in &queries {
            kd_nodes += kd.knn(q, k).1.nodes_visited;
        }
        let kd_us = start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;
        let _ = mem_nodes;
        table.row(vec![
            k.to_string(),
            f(mp.time_us, 1),
            f(mem_us, 1),
            f(kd_us, 1),
            f(mp.nodes, 1),
            f(kd_nodes as f64 / queries.len() as f64, 1),
        ]);
    }
    table.print();
}

/// E12 — kNN-join locality (extension): processing the outer set in
/// Hilbert order makes consecutive queries hit the same subtree, so a
/// small LRU buffer absorbs most node reads. Claim: same logical work,
/// far fewer physical reads under a constrained buffer.
pub fn e12() {
    let n = scaled(100_000);
    let n_outer = scaled(20_000);
    let d = Dataset::uniform(n, SEED + 11);
    let outer = nnq_workloads::uniform_points(n_outer, &nnq_workloads::default_bounds(), SEED + 11);

    // Build once on a shared device; join under small pools.
    let disk = Arc::new(MemDisk::new(PAGE_SIZE));
    let build_pool = Arc::new(BufferPool::new(
        Box::new(Arc::clone(&disk)),
        QUERY_POOL_FRAMES,
    ));
    let tree = RTree::<2>::bulk_load(
        Arc::clone(&build_pool),
        RTreeConfig::default(),
        d.items.clone(),
        BulkMethod::Str,
        1.0,
    )
    .unwrap();
    build_pool.flush_all().unwrap();
    let meta_page = tree.meta_page();
    let total_pages = tree.stats().unwrap().nodes;
    drop(tree);
    drop(build_pool);

    let mut table = Table::new(
        format!("E12: kNN-join outer ordering vs physical reads (N = {n}, outer = {n_outer}, k = 4, tree = {total_pages} pages)"),
        &["buffer [pages]", "order", "physical reads", "hit rate", "time [ms]"],
    );
    for frames in [16usize, 64, 256] {
        for (label, order) in [
            ("as-given", nnq_core::JoinOrder::AsGiven),
            ("hilbert", nnq_core::JoinOrder::Hilbert),
        ] {
            let pool = Arc::new(BufferPool::new(Box::new(Arc::clone(&disk)), frames));
            let tree = RTree::<2>::open(Arc::clone(&pool), meta_page).unwrap();
            pool.reset_stats();
            let start = Instant::now();
            let _ = nnq_core::knn_join(&tree, &outer, 4, NnOptions::default(), &MbrRefiner, order)
                .unwrap();
            let elapsed = start.elapsed();
            let s = pool.stats();
            table.row(vec![
                frames.to_string(),
                label.to_string(),
                s.physical_reads.to_string(),
                f(s.hit_rate(), 3),
                f(elapsed.as_secs_f64() * 1e3, 0),
            ]);
        }
    }
    table.print();
}

/// E13 — parallel batch scaling (extension; the paper's conclusion lists
/// parallel NN as future work). Claim: independent queries over a shared
/// tree scale near-linearly until memory bandwidth bites.
pub fn e13() {
    let n = scaled(200_000);
    let n_queries = scaled(20_000);
    let d = Dataset::uniform(n, SEED + 12);
    let tree = nnq_rtree::MemRTree::<2>::new();
    for (mbr, rid) in &d.items {
        tree.insert(mbr, *rid).unwrap();
    }
    let queries =
        nnq_workloads::uniform_queries(n_queries, &nnq_workloads::default_bounds(), SEED + 12);
    // Warm-up.
    let _ = nnq_core::par_knn_batch(
        &tree,
        &queries[..1000.min(queries.len())],
        10,
        NnOptions::default(),
        &MbrRefiner,
        2,
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut table = Table::new(
        format!(
            "E13: parallel batch kNN scaling (mem R-tree, N = {n}, {n_queries} queries, k = 10, {cores} core(s) available)"
        ),
        &["threads", "total [ms]", "queries/s", "speedup"],
    );
    let mut base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let out = nnq_core::par_knn_batch(
            &tree,
            &queries,
            10,
            NnOptions::default(),
            &MbrRefiner,
            threads,
        )
        .unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(out.len(), queries.len());
        if threads == 1 {
            base = secs;
        }
        table.row(vec![
            threads.to_string(),
            f(secs * 1e3, 0),
            f(queries.len() as f64 / secs, 0),
            f(base / secs, 2),
        ]);
    }
    table.print();
}

/// E14 — disk-resident refinement (extension of the paper's filter-refine
/// setting): when object geometry lives in a heap file on the same
/// device, refinement pays page accesses too. Claim: refinement adds a
/// small, k-proportional number of heap-page reads on top of the index
/// pages.
pub fn e14() {
    let n = scaled(100_000);
    let segments = nnq_workloads::tiger_like_segments(&nnq_workloads::TigerParams {
        segments: n,
        seed: SEED + 13,
        ..nnq_workloads::TigerParams::default()
    });
    let pool = Arc::new(BufferPool::new(
        Box::new(MemDisk::new(PAGE_SIZE)),
        QUERY_POOL_FRAMES,
    ));
    let (heap, items) = nnq_workloads::segments_to_heap(Arc::clone(&pool), &segments).unwrap();
    let tree = RTree::<2>::create(Arc::clone(&pool), RTreeConfig::default()).unwrap();
    for (mbr, rid) in &items {
        tree.insert(mbr, *rid).unwrap();
    }
    let index_pages = tree.stats().unwrap().nodes;
    let heap_pages = heap.pages().len();
    let queries = queries_for(500, SEED + 13);
    let search = NnSearch::new(&tree);

    let mut table = Table::new(
        format!("E14: refinement I/O (tiger-like, N = {n}, index = {index_pages} pages, heap = {heap_pages} pages)"),
        &["k", "slice refine pages/query", "heap refine pages/query", "heap extra"],
    );
    // The tree's record ids are heap ids; map them back to slice indices
    // for the no-I/O baseline.
    let index_of: std::collections::HashMap<u64, usize> = items
        .iter()
        .enumerate()
        .map(|(i, (_, rid))| (rid.0, i))
        .collect();
    for &k in &[1usize, 4, 10] {
        // Baseline: geometry in a host slice (no I/O for refinement).
        let slice_refiner = nnq_core::FnRefiner::new(
            |rid: nnq_rtree::RecordId, _: &nnq_geom::Rect<2>, q: &nnq_geom::Point<2>| {
                segments[index_of[&rid.0]].dist_sq_to_point(q)
            },
        );
        pool.reset_stats();
        for q in &queries {
            let _ = search.query_refined(q, k, &slice_refiner).unwrap();
        }
        let slice_pages = pool.stats().logical_reads as f64 / queries.len() as f64;

        // Disk-resident geometry: each exact distance fetches a heap page.
        let heap_refiner = nnq_core::FnRefiner::new(
            |rid: nnq_rtree::RecordId, _: &nnq_geom::Rect<2>, q: &nnq_geom::Point<2>| {
                nnq_workloads::read_segment(&heap, nnq_storage::HeapRecordId(rid.0))
                    .unwrap()
                    .dist_sq_to_point(q)
            },
        );
        pool.reset_stats();
        for q in &queries {
            let _ = search.query_refined(q, k, &heap_refiner).unwrap();
        }
        let heap_pages_q = pool.stats().logical_reads as f64 / queries.len() as f64;

        table.row(vec![
            k.to_string(),
            f(slice_pages, 1),
            f(heap_pages_q, 1),
            f(heap_pages_q - slice_pages, 1),
        ]);
    }
    table.print();
}

/// E15 — (1+ε)-approximate kNN (extension): trading guaranteed accuracy
/// for page accesses. Claim: modest ε buys a meaningful reduction in
/// nodes visited while observed error stays far below the guarantee.
pub fn e15() {
    let n = scaled(100_000);
    let d = Dataset::clustered(n, SEED + 14);
    let built = default_build(&d);
    let queries = queries_for(300, SEED + 14);
    // Exact baseline distances for error measurement.
    let exact_search = NnSearch::new(&built.tree);
    let exact: Vec<Vec<f64>> = queries
        .iter()
        .map(|q| {
            exact_search
                .query(q, 10)
                .unwrap()
                .iter()
                .map(nnq_core::Neighbor::dist)
                .collect()
        })
        .collect();
    let mut table = Table::new(
        format!("E15: (1+ε)-approximate kNN (clustered, N = {n}, k = 10)"),
        &[
            "epsilon",
            "pages/query",
            "vs exact",
            "max observed error",
            "guarantee",
        ],
    );
    let mut exact_pages = 0.0;
    for eps in [0.0f64, 0.1, 0.25, 0.5, 1.0, 2.0] {
        let m = measure_knn(&built, &queries, 10, NnOptions::approximate(eps), None);
        if eps == 0.0 {
            exact_pages = m.pages;
        }
        // Observed worst-case rank-wise error ratio.
        let search = NnSearch::with_options(&built.tree, NnOptions::approximate(eps));
        let mut worst = 1.0f64;
        for (q, truth) in queries.iter().zip(&exact) {
            let got = search.query(q, 10).unwrap();
            for (g, t) in got.iter().zip(truth) {
                if *t > 0.0 {
                    worst = worst.max(g.dist() / t);
                }
            }
        }
        table.row(vec![
            f(eps, 2),
            f(m.pages, 1),
            f(m.pages / exact_pages, 2),
            f(worst, 3),
            f(1.0 + eps, 2),
        ]);
    }
    table.print();
}

/// E16 — spatial intersection join (extension; the companion operation
/// the paper's conclusion points at). Claim: synchronized traversal reads
/// orders of magnitude fewer nodes than an index-nested-loop join.
pub fn e16() {
    let mut table = Table::new(
        "E16: intersection join vs index-nested-loop (rect data)",
        &[
            "N per side",
            "pairs",
            "join node reads",
            "nested-loop reads",
            "ratio",
            "time [ms]",
        ],
    );
    for &n in &[scaled(10_000), scaled(40_000)] {
        let a = Dataset::clustered(n, SEED + 15);
        // Grow points into small rectangles so intersections exist.
        let to_rects = |items: &[(nnq_geom::Rect<2>, nnq_rtree::RecordId)], grow: f64| {
            items
                .iter()
                .map(|(r, id)| {
                    let c = r.center();
                    (
                        nnq_geom::Rect::new(
                            nnq_geom::Point::new([c[0] - grow, c[1] - grow]),
                            nnq_geom::Point::new([c[0] + grow, c[1] + grow]),
                        ),
                        *id,
                    )
                })
                .collect::<Vec<_>>()
        };
        let a_items = to_rects(&a.items, 30.0);
        let b_items = to_rects(&Dataset::clustered(n, SEED + 16).items, 30.0);
        let left = build_tree(
            &a_items,
            BuildMethod::Bulk(BulkMethod::Str),
            QUERY_POOL_FRAMES,
        );
        let right = build_tree(
            &b_items,
            BuildMethod::Bulk(BulkMethod::Str),
            QUERY_POOL_FRAMES,
        );
        let start = Instant::now();
        let (pairs, stats) = nnq_core::intersection_join(&left.tree, &right.tree).unwrap();
        let elapsed = start.elapsed();
        // An index-nested-loop join runs one window query per left record;
        // estimate its node reads by sampling 200 of them.
        let mut sampled = 0u64;
        let sample = a_items.iter().step_by((a_items.len() / 200).max(1));
        let mut sample_count = 0u64;
        for (r, _) in sample {
            let mut iter = right.tree.window_iter(*r);
            while iter.next().is_some() {}
            sampled += iter.nodes_read();
            sample_count += 1;
        }
        let nested = sampled as f64 / sample_count as f64 * a_items.len() as f64;
        let join_reads = (stats.nodes_left + stats.nodes_right) as f64;
        table.row(vec![
            n.to_string(),
            pairs.len().to_string(),
            f(join_reads, 0),
            f(nested, 0),
            f(nested / join_reads, 1),
            f(elapsed.as_secs_f64() * 1e3, 0),
        ]);
    }
    table.print();
}

/// Every experiment by name, in order.
pub const EXPERIMENTS: [(&str, fn()); 16] = [
    ("E1", e1),
    ("E2", e2),
    ("E3", e3),
    ("E4", e4),
    ("E5", e5),
    ("E6", e6),
    ("E7", e7),
    ("E8", e8),
    ("E9", e9),
    ("E10", e10),
    ("E11", e11),
    ("E12", e12),
    ("E13", e13),
    ("E14", e14),
    ("E15", e15),
    ("E16", e16),
];

/// Runs every experiment in sequence, printing total wall time.
pub fn run_all() {
    let start = Instant::now();
    for (name, run) in EXPERIMENTS {
        let t = Instant::now();
        run();
        eprintln!("[{name} finished in {:.1}s]", t.elapsed().as_secs_f64());
    }
    eprintln!(
        "\nAll experiments finished in {:.1}s (NNQ_SCALE = {}).",
        start.elapsed().as_secs_f64(),
        crate::scale()
    );
}

/// Ensures an otherwise-unused helper stays exercised.
#[allow(dead_code)]
fn _use_built(_: &BuiltTree) {}
