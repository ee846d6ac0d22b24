//! The Kafka-style pub/sub shim (§VIII-C.7): topics and key filters
//! over the whole Fat-Tree fabric, no broker in sight.
//!
//! ```sh
//! cargo run -p camus-bench --example kafka_shim
//! ```

use camus_apps::pubsub::{PubSub, Subscription};
use camus_bench::baselines::kafka::KafkaModel;
use camus_routing::algorithm1::Policy;
use camus_routing::topology::paper_fat_tree;

fn main() {
    let mut fabric = PubSub::deploy(paper_fat_tree(), Policy::TrafficReduction);

    // Consumers subscribe; richer-than-Kafka key filters are just
    // packet subscriptions.
    fabric.subscribe(5, Subscription::topic("orders"));
    fabric.subscribe(9, Subscription::with_key_filter("orders", "key > 1000"));
    fabric.subscribe(14, Subscription::topic("alerts"));
    println!("consumers: host5=orders, host9=orders(key>1000), host14=alerts");

    // A producer on host 0 publishes.
    let mut producer = fabric.producer(0);
    producer.send("orders", 42, r#"{"sym":"GOOGL","qty":100}"#);
    producer.send("orders", 4242, r#"{"sym":"MSFT","qty":9000}"#);
    producer.send("alerts", 1, "queue depth high");
    producer.send("metrics", 7, "nobody listens to this");

    for host in [5usize, 9, 14, 2] {
        let got = fabric.poll(host);
        println!("\nhost {host} polled {} message(s):", got.len());
        for (topic, key, payload) in got {
            println!("  [{topic}] key={key}: {payload}");
        }
    }

    // What a broker fleet would need for switch-level throughput.
    let broker = KafkaModel::default();
    let switch_msgs_per_s = 6.5e12 / 8.0 / 512.0; // 6.5 Tb/s of 512 B messages
    println!(
        "\nthe switch moves ~{:.1} G msgs/s at 512 B; a broker fleet needs ~{} brokers for that",
        switch_msgs_per_s / 1e9,
        broker.brokers_needed(switch_msgs_per_s, 0.7)
    );
}
