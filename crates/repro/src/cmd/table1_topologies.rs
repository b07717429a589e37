//! Table I: the topology sweeps (endpoints, switches, cables) used by
//! Figures 5-7, with this reproduction's parameter choices.

use fabric::TopologyStats;

pub fn main() {
    let cli = repro::Cli::parse();
    println!(
        "Table I: topology parameters (REPRO_MAX_ENDPOINTS={})\n",
        repro::max_endpoints()
    );
    let mut rows = Vec::new();
    let series = repro::xgft_series()
        .into_iter()
        .chain(repro::kautz_series())
        .chain(repro::tree_series());
    for (n, net) in series {
        let st = TopologyStats::of(&net);
        rows.push(vec![
            n.to_string(),
            net.label().to_string(),
            st.switches.to_string(),
            st.cables.to_string(),
            st.interswitch_cables.to_string(),
            format!("{}..{}", st.switch_degree.0, st.switch_degree.1),
            st.diameter.map_or("-".into(), |d| d.to_string()),
        ]);
    }
    cli.table(
        &[
            "endpoints",
            "topology",
            "switches",
            "cables",
            "sw-sw cables",
            "sw degree",
            "diameter",
        ],
        &rows,
    );
    cli.finish().expect("write metrics");
}
