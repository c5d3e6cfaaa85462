//! Criterion bench for the DOM-vs-SAX ablation: parsing a 50-response
//! multistatus document both ways, beside the server's cost of writing it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pse_dav::multistatus::{Multistatus, PropStat};
use pse_dav::property::{Property, PropertyName};
use pse_http::StatusCode;

fn sample(responses: usize, props: usize, value_len: usize) -> Multistatus {
    let mut ms = Multistatus::new();
    let value = "v".repeat(value_len);
    for r in 0..responses {
        let props = (0..props)
            .map(|p| {
                Property::text(
                    PropertyName::new("http://emsl.pnl.gov/ecce", &format!("meta-{p:02}")),
                    &value,
                )
            })
            .collect();
        ms.push_propstats(
            &format!("/t1/doc-{r:02}"),
            vec![PropStat {
                props,
                status: StatusCode::OK,
            }],
        );
    }
    ms
}

fn bench_parsers(c: &mut Criterion) {
    let ms = sample(50, 5, 1024);
    let xml = ms.to_xml();
    let mut group = c.benchmark_group("parse_mode");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("to_xml", |b| b.iter(|| ms.to_xml()));
    group.bench_function("dom", |b| b.iter(|| Multistatus::parse_dom(&xml).unwrap()));
    group.bench_function("sax", |b| b.iter(|| Multistatus::parse_sax(&xml).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_parsers);
criterion_main!(benches);
