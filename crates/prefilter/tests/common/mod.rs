//! The adversarial corpus (`tests/corpus/adversarial.txt`), parsed once
//! for the test files that walk it.

const CORPUS: &str = include_str!("../corpus/adversarial.txt");

pub struct Entry {
    pub name: String,
    pub delta: u32,
    pub read: Vec<u8>,
    pub window: Vec<u8>,
}

fn codes(s: &str) -> Vec<u8> {
    s.bytes()
        .map(|b| match b {
            b'A' => 0u8,
            b'C' => 1,
            b'G' => 2,
            b'T' => 3,
            other => panic!("bad corpus base {:?}", other as char),
        })
        .collect()
}

pub fn entries() -> Vec<Entry> {
    CORPUS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut parts = line.split('\t');
            let name = parts.next().expect("name").to_string();
            let delta = parts.next().expect("delta").parse().expect("delta int");
            let read = codes(parts.next().expect("read"));
            let window = codes(parts.next().expect("window"));
            Entry {
                name,
                delta,
                read,
                window,
            }
        })
        .collect()
}
