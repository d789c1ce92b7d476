//! Quickstart: encode a multicast group, inspect its p-rules, and push a
//! real packet through the simulated fabric.
//!
//! This walks the paper's §3 running example end to end (Figure 3): a
//! six-member group on a 4-pod Clos, encoded at different redundancy limits,
//! then actually transmitted from host Ha and delivered to every member.
//!
//! Run with: `cargo run --example quickstart`

use std::net::Ipv4Addr;

use elmo::controller::{Controller, ControllerConfig, GroupId, MemberRole};
use elmo::core::HeaderLayout;
use elmo::dataplane::{Fabric, HypervisorSwitch, SenderFlow, SwitchConfig, VmSlot};
use elmo::net::vxlan::Vni;
use elmo::topology::{Clos, HostId, LeafId, PodId};

fn main() {
    // ----- 1. The fabric ---------------------------------------------------
    // Figure 3a: 4 pods x (2 spines, 2 leaves) + 4 cores, 8 hosts per leaf.
    let topo = Clos::paper_example();
    let layout = HeaderLayout::for_clos(&topo);
    println!(
        "fabric: {} pods, {} leaves, {} spines, {} cores, {} hosts",
        topo.num_pods(),
        topo.num_leaves(),
        topo.num_spines(),
        topo.num_cores(),
        topo.num_hosts()
    );

    // ----- 2. The group ------------------------------------------------------
    // Ha, Hb on L0; Hk on L5; Hm, Hn on L6; Hp on L7 (pods 0, 2, 3).
    let members = [
        (HostId(0), MemberRole::Both),      // Ha
        (HostId(1), MemberRole::Receiver),  // Hb
        (HostId(42), MemberRole::Receiver), // Hk
        (HostId(48), MemberRole::Receiver), // Hm
        (HostId(49), MemberRole::Receiver), // Hn
        (HostId(57), MemberRole::Receiver), // Hp
    ];
    let mut ctl = Controller::new(topo, ControllerConfig::paper_default(2));
    let gid = GroupId(1);
    let tenant_group = Ipv4Addr::new(225, 1, 2, 3); // tenant-chosen address
    ctl.create_group(gid, Vni(42), tenant_group, members);
    let state = ctl.group(gid).expect("group installed");
    println!(
        "\ngroup {}: {} members on {} leaves in {} pods; outer address {}",
        gid.0,
        state.tree.size(),
        state.tree.num_leaves(),
        state.tree.num_pods(),
        state.outer_addr
    );

    // ----- 3. The encoding ----------------------------------------------------
    println!("\ndownstream spine p-rules (bitmap over the pod's leaves : pods):");
    for rule in &state.enc.d_spine.p_rules {
        let pods: Vec<String> = rule
            .switches
            .iter()
            .map(|p| PodId(*p).to_string())
            .collect();
        println!("  {}:[{}]", rule.bitmap, pods.join(","));
    }
    println!("downstream leaf p-rules (bitmap over the leaf's hosts : leaves):");
    for rule in &state.enc.d_leaf.p_rules {
        let leaves: Vec<String> = rule
            .switches
            .iter()
            .map(|l| LeafId(*l).to_string())
            .collect();
        println!("  {}:[{}]", rule.bitmap, leaves.join(","));
    }

    // Per-sender headers: upstream rules differ, downstream rules are shared.
    let header = ctl.header_for(gid, HostId(0)).expect("sender header");
    let bytes = header.encode(&layout);
    println!(
        "\nsender Ha's header: {} bytes on the wire ({} bits of p-rules)",
        bytes.len(),
        header.bit_len(&layout)
    );
    println!(
        "  u-leaf down={} multipath={}",
        header.u_leaf.as_ref().expect("u-leaf").down,
        header.u_leaf.as_ref().expect("u-leaf").multipath,
    );
    println!(
        "  core pods bitmap = {}",
        header.core.as_ref().expect("core")
    );

    // ----- 4. A real transmission ---------------------------------------------
    let mut fabric = Fabric::new(topo, SwitchConfig::default());
    let sender = HostId(0);
    let mut hv = HypervisorSwitch::new(sender);
    hv.install_flow(
        Vni(42),
        tenant_group,
        SenderFlow::new(state.outer_addr, Vni(42), &header, &layout, vec![]),
    );
    let payload = b"hello, multicast world";
    let packet = hv.send(Vni(42), tenant_group, payload, &layout).remove(0);
    println!(
        "\ninjecting a {}-byte packet from {sender}...",
        packet.len()
    );

    let deliveries = fabric.inject(sender, packet);
    for (host, wire) in &deliveries {
        let mut rx = HypervisorSwitch::new(*host);
        rx.subscribe(state.outer_addr, VmSlot(0));
        for (_vm, inner) in rx.receive(wire, &layout) {
            println!(
                "  {host} received {} bytes (inner frame: {:?})",
                wire.len(),
                String::from_utf8_lossy(inner)
            );
        }
    }
    println!(
        "\nlink bytes per tier: host->leaf {}, leaf->spine {}, spine->core {}, \
         core->spine {}, spine->leaf {}, leaf->host {}",
        fabric.stats.host_to_leaf_bytes,
        fabric.stats.leaf_to_spine_bytes,
        fabric.stats.spine_to_core_bytes,
        fabric.stats.core_to_spine_bytes,
        fabric.stats.spine_to_leaf_bytes,
        fabric.stats.leaf_to_host_bytes
    );
    assert_eq!(
        deliveries.len(),
        5,
        "all five receivers got exactly one copy"
    );
    println!("\nall receivers reached; headers popped hop by hop. done.");
}
