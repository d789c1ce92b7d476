//! State-machine replication over Elmo (one of the paper's §1 motivating
//! workloads): a leader replicates an ordered command log to N replicas,
//! over native multicast vs sender-side unicast replication.
//!
//! Run with: `cargo run --example smr [replicas]`

use elmo::apps::pubsub::Transport;
use elmo::apps::smr::{replicate, sample_log};
use elmo::apps::HostModel;
use elmo::topology::Clos;

fn main() {
    let max: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(48);
    let topo = Clos::paper_example();
    let model = HostModel::default();
    let log = sample_log(200);

    println!("replicating a {}-command log\n", log.len());
    println!(
        "{:>8}  {:>16} {:>16}  {:>14} {:>14}",
        "replicas", "elmo commits/s", "uni commits/s", "elmo B/commit", "uni B/commit"
    );
    let mut n = 2;
    while n <= max && n < topo.num_hosts() {
        let e = replicate(topo, n, &log, Transport::Elmo, &model);
        let u = replicate(topo, n, &log, Transport::Unicast, &model);
        assert!(e.converged && u.converged, "replicas diverged at n={n}");
        println!(
            "{:>8}  {:>16.0} {:>16.0}  {:>14.1} {:>14.1}",
            n,
            e.commits_per_sec,
            u.commits_per_sec,
            e.leader_bytes_per_commit,
            u.leader_bytes_per_commit
        );
        n *= 2;
    }
    println!(
        "\nevery run verified: all replicas applied all commands in order and \
         agree on the state digest.\nwith Elmo the leader's cost per commit is \
         one packet; over unicast it grows linearly with the replica count."
    );
}
