//! Subnet-manager end-to-end runs over the real-world reconstructions
//! and formats: the full deployment pipeline the paper ships.

use dfsssp::fabric::format;
use dfsssp::prelude::*;
use dfsssp::topo::realworld::RealSystem;

#[test]
fn dfsssp_deploys_on_every_realworld_reconstruction() {
    for sys in RealSystem::ALL {
        let net = sys.build(0.05);
        let sm = SubnetManager::new(DfSssp::new());
        let fabric = sm
            .run(&net, net.terminals()[0])
            .unwrap_or_else(|e| panic!("{}: {e}", sys.name()));
        let nt = net.num_terminals();
        assert_eq!(fabric.pairs_validated, nt * (nt - 1), "{}", sys.name());
        assert!(fabric.tables.num_vls() <= 8, "{}", sys.name());
    }
}

#[test]
fn lft_walks_agree_with_routes_on_single_homed_fabrics() {
    let net = RealSystem::Odin.build(0.5);
    let sm = SubnetManager::new(DfSssp::new());
    let fabric = sm.run(&net, net.terminals()[0]).unwrap();
    for &src in net.terminals() {
        for &dst in net.terminals() {
            if src == dst {
                continue;
            }
            let walk = fabric
                .tables
                .walk(&net, &fabric.lids, src, fabric.lids.lid(dst))
                .unwrap();
            let path = fabric.routes.path_channels(&net, src, dst).unwrap();
            assert_eq!(walk, path);
        }
    }
}

#[test]
fn programmed_fabric_round_trips_through_json() {
    let net = dfsssp::topo::kary_ntree(2, 3);
    let routes = DfSssp::new().route(&net).unwrap();
    let njson = format::network_to_json(&net);
    let rjson = format::routes_to_json(&routes);
    let net2 = format::network_from_json(&njson).unwrap();
    let routes2 = format::routes_from_json(&rjson).unwrap();
    // The reloaded pair validates identically.
    let nt = net2.num_terminals();
    assert_eq!(routes2.validate_connectivity(&net2).unwrap(), nt * (nt - 1));
    dfsssp::verify::verify_deadlock_free(&net2, &routes2).unwrap();
}

#[test]
fn text_format_round_trips_all_generators() {
    let nets = vec![
        dfsssp::topo::ring(6, 2),
        dfsssp::topo::torus(&[3, 4], 1),
        dfsssp::topo::kary_ntree(3, 2),
        dfsssp::topo::xgft(2, &[4, 4], &[2, 2]),
        dfsssp::topo::kautz(2, 2, 12, true),
        dfsssp::topo::dragonfly(3, 1, 1),
    ];
    for net in nets {
        let text = format::write_network(&net);
        let back = format::parse_network(&text).unwrap();
        assert_eq!(back.num_nodes(), net.num_nodes(), "{}", net.label());
        assert_eq!(back.num_channels(), net.num_channels(), "{}", net.label());
        back.validate().unwrap();
        // And the reparsed network routes identically in shape.
        let a = DfSssp::new().route(&net).unwrap();
        let b = DfSssp::new().route(&back).unwrap();
        assert_eq!(a.num_layers(), b.num_layers(), "{}", net.label());
    }
}

#[test]
fn degraded_fabric_still_deploys() {
    let pristine = dfsssp::topo::kary_ntree(4, 2);
    let (net, removed) = dfsssp::fabric::degrade::fail_random_cables(&pristine, 6, 11);
    assert!(removed > 0);
    let sm = SubnetManager::new(DfSssp::new());
    let fabric = sm.run(&net, net.terminals()[0]).unwrap();
    let nt = net.num_terminals();
    assert_eq!(fabric.pairs_validated, nt * (nt - 1));
}
