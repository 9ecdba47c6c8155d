//! One seeded byte-mutation suite over every decoder that reads bytes from
//! outside the process: wire requests and responses, WAL records (the
//! checkpoint is the same frames) and index specs — all built from
//! `tsunami_store::codec`'s composites.
//!
//! Every seed is a valid encoding that must round-trip. Then every
//! truncation of it and one trailing byte (both must be errors), every
//! single-bit flip and, at every offset, a `u32` overwritten with 0, 1,
//! `u32::MAX` and "remaining bytes + 1" — which hits every length, count and
//! dimension field — must decode or return an error: never panic, never
//! abort on an allocation. WAL payloads are
//! re-sealed (length and checksum recomputed) after each mutation, so the
//! mutation reaches the record decoder instead of stopping at the checksum.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use tsunami_core::sample::SplitMix;
use tsunami_core::{
    AggResult, Aggregation, Dataset, Point, Predicate, Query, TsunamiError, Workload,
};
use tsunami_engine::durability::{decode_spec, encode_spec};
use tsunami_engine::{IndexSpec, PageSize, ShardedDatabase};
use tsunami_index::FloodConfig;
use tsunami_index::{OptimizerKind, TsunamiConfig};
use tsunami_server::protocol::{code, read_frame, write_frame, FrameRead, DEFAULT_MAX_FRAME};
use tsunami_server::{Request, Response, Server, ServerConfig, WireError};
use tsunami_store::codec::{self, CodecError};
use tsunami_store::wal::{checksum, decode_frames, encode_record, WalRecord};

/// Every mutant of `bytes` the suite tries, in a deterministic order: the
/// truncations first, then one trailing byte, then the rest.
fn mutants(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for cut in 0..bytes.len() {
        out.push(bytes[..cut].to_vec());
    }
    out.push([bytes, &[0]].concat());
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut m = bytes.to_vec();
            m[byte] ^= 1 << bit;
            out.push(m);
        }
    }
    for at in 0..bytes.len().saturating_sub(3) {
        let remaining = (bytes.len() - at - 4) as u32;
        for v in [0, 1, u32::MAX, remaining + 1] {
            let mut m = bytes.to_vec();
            m[at..at + 4].copy_from_slice(&v.to_be_bytes());
            out.push(m);
        }
    }
    out
}

/// Runs `decode` over every mutant of `seed`. Every format here is
/// self-delimiting and strict, so a truncation or a trailing byte must be an
/// error; every other mutant may go either way.
fn mutate<T, E>(seed: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    for (i, m) in mutants(seed).iter().enumerate() {
        let outcome = decode(m);
        if i <= seed.len() {
            assert!(outcome.is_err(), "{m:?}, mutant {i} of {seed:?}, decoded");
        }
    }
}

fn arbitrary_string(rng: &mut SplitMix) -> String {
    (0..rng.next_below(12))
        .map(|_| char::from(b'a' + rng.next_below(26) as u8))
        .collect()
}

fn arbitrary_aggregation(rng: &mut SplitMix, dims: u64) -> Aggregation {
    let dim = rng.next_below(dims) as usize;
    match rng.next_below(5) {
        0 => Aggregation::Count,
        1 => Aggregation::Sum(dim),
        2 => Aggregation::Min(dim),
        3 => Aggregation::Max(dim),
        _ => Aggregation::Avg(dim),
    }
}

/// Raw predicates: inverted ranges included, as the wire carries them.
fn arbitrary_predicates(rng: &mut SplitMix, dims: u64) -> Vec<Predicate> {
    (0..rng.next_below(4))
        .map(|_| {
            let lo = rng.next_below(1_000);
            Predicate {
                dim: rng.next_below(dims) as usize,
                lo,
                hi: lo.wrapping_add(rng.next_below(600)).wrapping_sub(100),
            }
        })
        .collect()
}

fn arbitrary_query(rng: &mut SplitMix, dims: u64) -> Query {
    let predicates = (0..=rng.next_below(dims) as usize)
        .map(|dim| {
            let lo = rng.next_below(1_000);
            Predicate::range(dim, lo, lo + rng.next_below(500)).unwrap()
        })
        .collect();
    Query::new(predicates, arbitrary_aggregation(rng, dims)).unwrap()
}

/// At least `min_rows` rows, at most three more.
fn arbitrary_dataset(rng: &mut SplitMix, dims: usize, min_rows: usize) -> Dataset {
    let rows = min_rows + rng.next_below(4) as usize;
    let columns = (0..dims)
        .map(|_| (0..rows).map(|_| rng.next_u64()).collect())
        .collect();
    Dataset::from_columns(columns).unwrap()
}

fn arbitrary_request(rng: &mut SplitMix) -> Request {
    match rng.next_below(3) {
        0 => Request::Query {
            table: arbitrary_string(rng),
            predicates: arbitrary_predicates(rng, 8),
            aggregation: arbitrary_aggregation(rng, 8),
        },
        1 => {
            // An empty insert has no rows and so no width; it still travels.
            let width = 1 + rng.next_below(4) as usize;
            let rows = (0..rng.next_below(4))
                .map(|_| (0..width).map(|_| rng.next_u64()).collect::<Point>())
                .collect();
            Request::Insert {
                table: arbitrary_string(rng),
                rows,
            }
        }
        _ => Request::Ping,
    }
}

fn arbitrary_response(rng: &mut SplitMix) -> Response {
    let opt = |rng: &mut SplitMix| (rng.next_below(3) > 0).then(|| rng.next_u64());
    match rng.next_below(4) {
        0 => Response::Result(match rng.next_below(5) {
            0 => AggResult::Count(rng.next_u64()),
            1 => AggResult::Sum((rng.next_u64() as u128) << 64 | rng.next_u64() as u128),
            2 => AggResult::Min(opt(rng)),
            3 => AggResult::Max(opt(rng)),
            _ => AggResult::Avg(opt(rng).map(|v| v as f64 / 3.0)),
        }),
        1 => Response::Error {
            code: rng.next_below(8) as u16,
            message: arbitrary_string(rng),
        },
        2 => Response::Pong,
        _ => Response::Inserted(rng.next_u64()),
    }
}

fn arbitrary_record(rng: &mut SplitMix) -> WalRecord {
    let dims = 1 + rng.next_below(3);
    match rng.next_below(5) {
        0 => WalRecord::CreateTable {
            name: arbitrary_string(rng),
            columns: (0..dims).map(|d| format!("c{d}")).collect(),
            spec: (0..rng.next_below(12))
                .map(|_| rng.next_u64() as u8)
                .collect(),
            workload: (0..rng.next_below(3))
                .map(|_| arbitrary_query(rng, dims))
                .collect(),
            data: arbitrary_dataset(rng, dims as usize, 0),
        },
        1 => WalRecord::InsertBatch {
            table: arbitrary_string(rng),
            rows: arbitrary_dataset(rng, dims as usize, 1),
        },
        2 => WalRecord::Delete {
            table: arbitrary_string(rng),
            predicates: arbitrary_query(rng, dims).predicates().to_vec(),
        },
        3 => WalRecord::RegisterView {
            table: arbitrary_string(rng),
            name: arbitrary_string(rng),
            query: arbitrary_query(rng, dims),
        },
        _ => WalRecord::Checkpoint {
            generation: rng.next_u64(),
            tables: (0..rng.next_below(3))
                .map(|_| arbitrary_string(rng))
                .collect(),
        },
    }
}

/// A frame around `payload`: length, checksum, payload.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend(checksum(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// The one record a sealed `payload` decodes to, if it does.
fn decode_payload(payload: &[u8]) -> Result<WalRecord, ()> {
    match decode_frames(&seal(payload)) {
        (mut records, _) if records.len() == 1 => Ok(records.remove(0)),
        _ => Err(()),
    }
}

#[test]
fn wire_requests_survive_every_mutation() {
    let mut rng = SplitMix::new(0xc0dec);
    let mut seen = [false; 3];
    for _ in 0..200 {
        let request = arbitrary_request(&mut rng);
        seen[match &request {
            Request::Query { .. } => 0,
            Request::Insert { rows, .. } if rows.is_empty() => 1,
            _ => 2,
        }] = true;
        let bytes = request.encode().unwrap();
        assert_eq!(Request::decode(&bytes).unwrap(), request);
        mutate(&bytes, Request::decode);
    }
    assert!(
        seen.iter().all(|&s| s),
        "no query or no empty insert seeded"
    );
}

#[test]
fn wire_responses_survive_every_mutation() {
    let mut rng = SplitMix::new(0x5e5);
    for _ in 0..200 {
        let response = arbitrary_response(&mut rng);
        let bytes = response.encode().unwrap();
        assert_eq!(Response::decode(&bytes).unwrap(), response);
        mutate(&bytes, Response::decode);
    }
}

#[test]
fn wal_records_survive_every_mutation() {
    let mut rng = SplitMix::new(0xa11);
    let mut kinds = [false; 5];
    for _ in 0..200 {
        let record = arbitrary_record(&mut rng);
        kinds[match record {
            WalRecord::CreateTable { .. } => 0,
            WalRecord::InsertBatch { .. } => 1,
            WalRecord::Delete { .. } => 2,
            WalRecord::RegisterView { .. } => 3,
            WalRecord::Checkpoint { .. } => 4,
        }] = true;
        let frame = encode_record(&record).unwrap();
        assert_eq!(decode_frames(&frame), (vec![record.clone()], frame.len()));
        let payload = &frame[8..];
        assert_eq!(decode_payload(payload).unwrap(), record);
        mutate(payload, decode_payload);
        // Cut through the header too: a torn frame yields no record.
        for cut in 0..frame.len() {
            assert_eq!(decode_frames(&frame[..cut]), (vec![], 0), "cut at {cut}");
        }
    }
    assert!(kinds.iter().all(|&k| k), "a record kind was never seeded");
}

fn every_spec() -> Vec<IndexSpec> {
    let mut specs = IndexSpec::all();
    specs.extend(IndexSpec::all_fast());
    specs.push(IndexSpec::ZOrder(PageSize::TunedOver(vec![64, 256, 4096])));
    specs.push(IndexSpec::Flood(FloodConfig {
        max_iters: 7,
        ..FloodConfig::fast()
    }));
    for optimizer in [
        OptimizerKind::Adaptive,
        OptimizerKind::GradientOnly,
        OptimizerKind::AdaptiveNaiveInit,
        OptimizerKind::BlackBox,
        OptimizerKind::Independent,
    ] {
        for max_tree_depth in [0, 3] {
            specs.push(IndexSpec::Tsunami(TsunamiConfig {
                max_tree_depth,
                ..(TsunamiConfig::fast())
                    .with_optimizer(optimizer)
                    .with_ingest_staleness(0.1, 0.9)
            }));
        }
    }
    specs
}

#[test]
fn index_specs_survive_every_mutation() {
    for spec in every_spec() {
        let bytes = encode_spec(&spec);
        let decoded = decode_spec(&bytes).unwrap();
        // IndexSpec is not PartialEq (it holds f64-bearing configs); compare
        // through a second encode, which is exact for every field.
        assert_eq!(encode_spec(&decoded), bytes, "{}", spec.label());
        assert_eq!(decoded.label(), spec.label());
        mutate(&bytes, |m| match decode_spec(m) {
            Err(e) if !matches!(e, TsunamiError::Durability(_)) => panic!("untyped: {e:?}"),
            outcome => outcome,
        });
    }

    // Every tag byte holds only the values an encoder writes.
    let refused = |bytes: &[u8]| matches!(decode_spec(bytes), Err(TsunamiError::Durability(_)));
    assert!(refused(&[0x7f]), "unknown spec tag");
    let mut bad_optimizer = encode_spec(&IndexSpec::tsunami());
    bad_optimizer[1] = 9;
    assert!(refused(&bad_optimizer), "bad optimizer kind");
    let mut bad_page = encode_spec(&IndexSpec::ZOrder(PageSize::Tuned));
    bad_page[1] = 0x44;
    assert!(refused(&bad_page), "bad page-size tag");
}

/// Only zero rows have a width their bytes cannot bound, so only theirs is
/// capped; one row may be wider than [`codec::MAX_ROW_WIDTH`].
#[test]
fn only_zero_rows_are_capped_in_width() {
    let logged = |rows: Dataset| {
        let record = WalRecord::InsertBatch {
            table: "t".into(),
            rows,
        };
        let frame = encode_record(&record)?;
        assert_eq!(decode_frames(&frame), (vec![record], frame.len()));
        Ok::<_, TsunamiError>(())
    };
    logged(Dataset::empty(codec::MAX_ROW_WIDTH)).unwrap();
    let err = logged(Dataset::empty(codec::MAX_ROW_WIDTH + 1)).unwrap_err();
    assert!(
        matches!(&err, TsunamiError::Durability(m) if m.contains("MAX_ROW_WIDTH")),
        "{err:?}"
    );

    // One row wider than that is bounded by its bytes: it is logged and
    // replayed, and it travels on the wire.
    let wide: Point = (0..=codec::MAX_ROW_WIDTH as u64).collect();
    logged(Dataset::from_rows(wide.len(), std::slice::from_ref(&wide)).unwrap()).unwrap();
    let insert = Request::Insert {
        table: "t".into(),
        rows: vec![wide],
    };
    assert_eq!(Request::decode(&insert.encode().unwrap()).unwrap(), insert);

    // A claimed width of u32::MAX over zero rows is refused before a column
    // is allocated.
    let mut claim = u32::MAX.to_be_bytes().to_vec();
    claim.extend(0u32.to_be_bytes());
    assert!(matches!(
        codec::get_rows(&mut tsunami_core::codec::Reader::new(&claim)),
        Err(CodecError::Invalid(_))
    ));
}

/// An encoder refuses what its `u32` field cannot describe, and writes
/// nothing for it.
#[test]
fn lengths_past_u32_are_refused_when_written() {
    let mut out = Vec::new();
    assert_eq!(
        codec::put_len(&mut out, u32::MAX as usize + 1, "row count"),
        Err(CodecError::TooLarge("row count"))
    );
    assert!(out.is_empty());
    codec::put_len(&mut out, u32::MAX as usize, "row count").unwrap();
    assert_eq!(out, u32::MAX.to_be_bytes());
    // A dimension travels through the same check.
    let wide = Predicate {
        dim: u32::MAX as usize + 1,
        lo: 0,
        hi: 1,
    };
    assert_eq!(
        codec::put_predicate(&mut Vec::new(), &wide),
        Err(CodecError::TooLarge("predicate dimension"))
    );
}

/// An `Insert` with no columns and `u32::MAX` rows: before the shared rows
/// decoder checked width and byte count, this frame made the server push
/// 4.29 billion empty rows until the allocator aborted the process.
fn insert_of_u32_max_empty_rows() -> Vec<u8> {
    let mut frame = Request::Insert {
        table: "t".into(),
        rows: Vec::new(),
    }
    .encode()
    .unwrap();
    let n = frame.len();
    // The row count is the body's last field.
    frame[n - 4..].copy_from_slice(&u32::MAX.to_be_bytes());
    frame
}

#[test]
fn rows_without_columns_are_refused_before_any_row_is_built() {
    let frame = insert_of_u32_max_empty_rows();
    let start = Instant::now();
    assert_eq!(
        Request::decode(&frame),
        Err(WireError::Invalid("rows without columns"))
    );
    assert!(start.elapsed() < Duration::from_millis(50));

    // With one column the count must fit the bytes that are left.
    let mut frame = Request::Insert {
        table: "t".into(),
        rows: vec![vec![7]],
    }
    .encode()
    .unwrap();
    let n = frame.len();
    frame[n - 12..n - 8].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(Request::decode(&frame), Err(WireError::Truncated));

    // The same shape inside a WAL InsertBatch is refused as well.
    let frame = encode_record(&WalRecord::InsertBatch {
        table: "t".into(),
        rows: Dataset::empty(0),
    })
    .unwrap();
    let mut payload = frame[8..].to_vec();
    let n = payload.len();
    payload[n - 4..].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(decode_payload(&payload).is_err());
}

/// The frame above, sent to a live server, gets a typed BAD_REQUEST and the
/// connection keeps serving.
#[test]
fn a_live_connection_survives_rows_without_columns() {
    let mut db = ShardedDatabase::new(2);
    let data = Dataset::from_columns(vec![(0..100u64).collect()]).unwrap();
    db.create_table(
        "t",
        &["a"],
        &data,
        &Workload::default(),
        &IndexSpec::FullScan,
    )
    .unwrap();
    let mut server = Server::spawn(Arc::new(RwLock::new(db)), ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut exchange = |payload: &[u8]| {
        write_frame(&mut stream, payload).unwrap();
        stream.flush().unwrap();
        match read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap() {
            FrameRead::Frame(reply) => Response::decode(&reply).unwrap(),
            FrameRead::Eof => panic!("the server closed the connection"),
        }
    };
    match exchange(&insert_of_u32_max_empty_rows()) {
        Response::Error { code: c, .. } => assert_eq!(c, code::BAD_REQUEST),
        other => panic!("expected BAD_REQUEST, got {other:?}"),
    }
    assert_eq!(exchange(&Request::Ping.encode().unwrap()), Response::Pong);
    server.shutdown();
}
