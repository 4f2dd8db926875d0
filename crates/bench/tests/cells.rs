//! The analytic cells: complete against the paper's rows, finite, and
//! rendered to the same `FIDELITY.json` bytes on every call.

use bnn_bench::{analytic_cells, rel_err, to_json, Cell};

#[test]
fn every_paper_row_of_tables_ii_to_iv_yields_a_compared_cell() {
    let cells = analytic_cells();
    let compared = |table: &str| {
        cells
            .iter()
            .filter(|c| c.table == table && c.paper.is_some())
            .count()
    };
    // Table II: four resources. Table III: four latencies in each of six
    // rows. Table IV: three efficiencies of three designs, plus this
    // design's two efficiency ratios over each baseline.
    assert_eq!(compared("Table II"), 4);
    assert_eq!(compared("Table III"), 24);
    assert_eq!(compared("Table IV"), 9 + 4);
}

#[test]
fn analytic_values_are_finite() {
    // `JsonObj` writes a non-finite value as 0.000, which would hide a NaN.
    for c in analytic_cells() {
        let finite = c.value.is_finite() && c.rel_err().is_none_or(f64::is_finite);
        assert!(finite, "{c:?}");
    }
}

#[test]
fn two_calls_render_byte_identical_json() {
    assert_eq!(to_json(&analytic_cells()), to_json(&analytic_cells()));
}

#[test]
fn rel_err_is_exact_at_zero_and_keeps_its_sign() {
    assert_eq!(rel_err(13.73, 13.73), 0.0);
    assert!(rel_err(0.38, 13.73) < 0.0 && rel_err(1655.5, 1590.0) > 0.0);
    assert_eq!((rel_err(3.0, 2.0), rel_err(-1.0, -2.0)), (0.5, 0.5));
    let cell = |paper| Cell {
        table: "t",
        row: "r".into(),
        col: "c".into(),
        value: 2.0,
        paper,
    };
    assert_eq!(
        (cell(Some(2.0)).rel_err(), cell(None).rel_err()),
        (Some(0.0), None)
    );
}
