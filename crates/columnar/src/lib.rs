//! # dps-columnar — columnar snapshot storage and parallel analysis
//!
//! The paper stores daily measurement tables in Parquet and analyses them
//! with Hadoop. This crate is the laptop-scale substitute: columnar tables
//! with adaptive light-weight encodings (plain / delta-varint / RLE plus
//! dictionary encoding for strings) and a MapReduce-style parallel engine
//! on crossbeam scoped threads.
//!
//! ```
//! use dps_columnar::{Schema, TableBuilder, Table, mapreduce};
//!
//! let schema = Schema::new(&["day", "domain", "asn"]);
//! let mut b = TableBuilder::new(schema.clone());
//! for i in 0..1000u32 {
//!     b.push_row(&[42, i, 13335]);
//! }
//! let bytes = b.finish().to_bytes();
//! let table = Table::from_bytes(&bytes).unwrap();
//! assert_eq!(table.rows(), 1000);
//! assert_eq!(table.column_by_name("asn").unwrap()[999], 13335);
//!
//! // Parallel map over many tables, results in input order.
//! let tables = vec![Table::from_bytes(&bytes).unwrap()];
//! let rows: Vec<usize> = mapreduce::par_map(&tables, |t| t.rows());
//! assert_eq!(rows, vec![1000]);
//! ```

pub mod dictionary;
pub mod encoding;
pub mod mapreduce;
pub mod table;
pub mod varint;

pub use dictionary::StringDict;
pub use encoding::{decode_u32s, decode_u32s_into, encode_u32s, Encoding};
pub use table::{Schema, Table, TableBuilder};
