//! Cost contract of exact explanations: every intervention of an explain
//! is a row of one stacked generator pass, so a short explain pays one
//! pass's GEMM calls however many responses it attributes.

use rckt::{Backbone, Rckt, RcktConfig};
use rckt_data::{Batch, SyntheticSpec, Window};
use rckt_tensor::pool;

/// A history-4 explain (perfbench's probe size) on a dim-8 forward-only
/// DKT issues exactly the GEMM calls of one generator pass over its window
/// and, at pool width 2, opens no pool region. One pass per intervention
/// would issue 4× the calls. Call counts repeat exactly on any machine.
#[test]
fn history_4_explain_issues_one_pass_of_gemm_calls() {
    pool::set_threads(2);
    let ds = SyntheticSpec::assist09().scaled(0.03).generate();
    let cfg = RcktConfig {
        dim: 8,
        unidirectional: true,
        ..Default::default()
    };
    let m = Rckt::new(Backbone::Dkt, ds.num_questions(), ds.num_concepts(), cfg);
    let history = 4;
    let w = Window {
        student: 0,
        questions: (0..history)
            .map(|i| (1 + (i * 5 + 2) % (ds.num_questions() - 1)) as u32)
            .collect(),
        correct: vec![1, 0, 1, 1],
        len: history,
    };
    let batch = Batch::from_windows(&[&w], &ds.q_matrix);
    let target = [history - 1];
    let calls = rckt_obs::counter("kernel.matmul.calls");
    let regions = rckt_obs::counter("pool.regions");
    rckt_obs::set_profiling(true);
    let before = calls.get();
    m.factual_target_probs(&batch, &target);
    let one_pass = calls.get() - before;
    let (before, regions_before) = (calls.get(), regions.get());
    let records = m.influences_exact(&batch, &target);
    let (explain, explain_regions) = (calls.get() - before, regions.get() - regions_before);
    rckt_obs::set_profiling(false);
    assert_eq!(records[0].influences.len(), history - 1);
    assert!(one_pass > 0);
    assert_eq!(
        explain, one_pass,
        "a history-{history} explain issued {explain} GEMM calls, one pass issues {one_pass}"
    );
    assert_eq!(
        explain_regions, 0,
        "a one-graph explain opens no pool region"
    );
}
