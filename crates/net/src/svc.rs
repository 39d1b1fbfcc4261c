//! The `vcloudd` service wire protocol: length-prefixed frames over a byte
//! stream, encoded with [`bytebuf`](crate::bytebuf).
//!
//! The vehicular-cloud daemon (`vcloudd`, crate `vc-service`) accepts
//! scenario jobs from many tenants over TCP. Every message is one *frame*:
//! a big-endian `u32` payload length followed by the payload, whose first
//! byte is the frame kind. Payload lengths are capped at
//! [`MAX_FRAME_LEN`] — a reader confronted with a larger length declaration
//! rejects the frame instead of allocating attacker-controlled amounts of
//! memory, and every field read is length-checked by
//! [`ByteReader`](crate::bytebuf::ByteReader), so truncated or malformed
//! frames return [`FrameError`]s rather than panicking.
//!
//! Large payloads (job result statistics, trace bytes) never travel in one
//! frame: the server streams them as [`Frame::Chunk`]s of at most
//! [`CHUNK_LEN`] bytes between a [`Frame::ResultHeader`] (which declares
//! the exact total lengths and the checksum) and a [`Frame::ResultEnd`].
//!
//! The full exchange, job lifecycle state machine, and determinism
//! contract are documented in `docs/SERVICE.md`.

use crate::bytebuf::{ByteReader, ByteWriter};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload length. Larger declared lengths
/// are rejected before any allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Maximum data bytes per [`Frame::Chunk`]; results larger than this are
/// split across several chunks.
pub const CHUNK_LEN: usize = 60 * 1024;

/// `flags` bit: the job requests a per-job event trace; the RESULT then
/// carries the recorder's JSONL bytes on the trace channel.
pub const FLAG_TRACE: u32 = 1;

/// Job lifecycle states, as carried by [`Frame::JobStatus`] and
/// [`Frame::ResultHeader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the scenario.
    Running,
    /// Finished successfully; a result is available.
    Done,
    /// Finished with an error (message in the stats channel).
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobPhase {
    /// Wire encoding of the phase.
    pub fn as_u8(self) -> u8 {
        match self {
            JobPhase::Queued => 0,
            JobPhase::Running => 1,
            JobPhase::Done => 2,
            JobPhase::Failed => 3,
            JobPhase::Cancelled => 4,
        }
    }

    /// Decodes a phase byte.
    pub fn from_u8(v: u8) -> Result<JobPhase, FrameError> {
        Ok(match v {
            0 => JobPhase::Queued,
            1 => JobPhase::Running,
            2 => JobPhase::Done,
            3 => JobPhase::Failed,
            4 => JobPhase::Cancelled,
            _ => return Err(FrameError::BadPayload("unknown job phase")),
        })
    }

    /// `true` once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled)
    }

    /// Stable lowercase name (used in logs and JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

/// Why a SUBMIT was rejected (backpressure and validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue is at capacity; resubmit later.
    QueueFull,
    /// The daemon is draining for shutdown and admits no new work.
    Draining,
    /// No scenario with the submitted id exists.
    UnknownScenario,
    /// The job's tick or memory budget exceeds the per-job limit.
    BudgetExceeded,
    /// The frame was structurally valid but semantically unusable.
    BadRequest,
}

impl RejectReason {
    /// Wire encoding of the reason.
    pub fn as_u8(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::Draining => 1,
            RejectReason::UnknownScenario => 2,
            RejectReason::BudgetExceeded => 3,
            RejectReason::BadRequest => 4,
        }
    }

    /// Decodes a reason byte.
    pub fn from_u8(v: u8) -> Result<RejectReason, FrameError> {
        Ok(match v {
            0 => RejectReason::QueueFull,
            1 => RejectReason::Draining,
            2 => RejectReason::UnknownScenario,
            3 => RejectReason::BudgetExceeded,
            4 => RejectReason::BadRequest,
            _ => return Err(FrameError::BadPayload("unknown reject reason")),
        })
    }
}

/// Which logical stream a [`Frame::Chunk`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// The job's deterministic statistics JSON.
    Stats,
    /// The job's recorder trace (JSONL), present when [`FLAG_TRACE`] was
    /// set on SUBMIT.
    Trace,
}

impl Channel {
    fn as_u8(self) -> u8 {
        match self {
            Channel::Stats => 0,
            Channel::Trace => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Channel, FrameError> {
        Ok(match v {
            0 => Channel::Stats,
            1 => Channel::Trace,
            _ => return Err(FrameError::BadPayload("unknown chunk channel")),
        })
    }
}

/// Server-relative timestamps of a job's lifecycle transitions,
/// nanoseconds since the daemon's epoch (0 = transition not reached yet).
///
/// These are wall-clock host measurements for latency accounting
/// (`vcload` histograms); they are never part of the deterministic result
/// bytes or the checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobTimes {
    /// When the SUBMIT was admitted to the queue.
    pub accepted_ns: u64,
    /// When a worker began executing.
    pub started_ns: u64,
    /// When the job reached a terminal state.
    pub finished_ns: u64,
}

/// One protocol message. Client-originated kinds occupy `0x01..=0x0f`,
/// server-originated kinds `0x81..=0x8f`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client: submit a scenario job.
    Submit {
        /// Scenario id from the service catalog (e.g. `"urban-epidemic"`).
        scenario: String,
        /// Deterministic seed for the run.
        seed: u64,
        /// Simulation rounds to run.
        ticks: u32,
        /// Job flags ([`FLAG_TRACE`]).
        flags: u32,
    },
    /// Client: query a job's lifecycle state.
    Status {
        /// Job id from [`Frame::Accepted`].
        job: u64,
    },
    /// Client: wait for the job to finish and stream its result back.
    Result {
        /// Job id from [`Frame::Accepted`].
        job: u64,
    },
    /// Client: cancel a queued or running job.
    Cancel {
        /// Job id from [`Frame::Accepted`].
        job: u64,
    },
    /// Client: request the service metrics registry as JSON.
    Metrics,
    /// Client: drain and shut the daemon down. The server answers
    /// [`Frame::Okay`] only after every admitted job reached a terminal
    /// state.
    Shutdown,

    /// Server: the SUBMIT was admitted under this job id.
    Accepted {
        /// Server-assigned job id.
        job: u64,
    },
    /// Server: the SUBMIT was rejected (backpressure or validation).
    Rejected {
        /// Machine-readable rejection class.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
    /// Server: answer to [`Frame::Status`].
    JobStatus {
        /// Job id.
        job: u64,
        /// Current lifecycle state.
        phase: JobPhase,
        /// Jobs ahead of this one in the queue (0 once running).
        queue_depth: u32,
        /// Lifecycle timestamps.
        times: JobTimes,
    },
    /// Server: first frame of a result stream; declares exact lengths.
    ResultHeader {
        /// Job id.
        job: u64,
        /// Terminal state of the job.
        phase: JobPhase,
        /// FNV-1a checksum over stats bytes then trace bytes.
        checksum: u64,
        /// Total stats bytes that will follow in chunks.
        stats_len: u64,
        /// Total trace bytes that will follow in chunks.
        trace_len: u64,
        /// Lifecycle timestamps.
        times: JobTimes,
    },
    /// Server: one slice of a result stream.
    Chunk {
        /// Job id.
        job: u64,
        /// Which stream this slice extends.
        channel: Channel,
        /// The data (at most [`CHUNK_LEN`] bytes).
        data: Vec<u8>,
    },
    /// Server: the result stream is complete.
    ResultEnd {
        /// Job id.
        job: u64,
    },
    /// Server: answer to [`Frame::Metrics`].
    MetricsReply {
        /// The metrics hub snapshot rendered as JSON.
        json: String,
    },
    /// Server: generic success acknowledgement (cancel, shutdown).
    Okay,
    /// Server: request-level failure (e.g. unknown job id).
    Error {
        /// Human-readable detail.
        detail: String,
    },
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before a declared field.
    Truncated,
    /// A declared length exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared length.
        declared: u64,
    },
    /// The leading kind byte is not a known frame kind.
    UnknownKind(u8),
    /// A field held an invalid value.
    BadPayload(&'static str),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Decoded fine but bytes were left over (framing bug upstream).
    TrailingBytes(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame payload truncated"),
            FrameError::Oversized { declared } => {
                write!(f, "declared length {declared} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}")
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            FrameError::BadPayload(what) => write!(f, "bad payload: {what}"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
        }
    }
}

impl std::error::Error for FrameError {}

const K_SUBMIT: u8 = 0x01;
const K_STATUS: u8 = 0x02;
const K_RESULT: u8 = 0x03;
const K_CANCEL: u8 = 0x04;
const K_METRICS: u8 = 0x05;
const K_SHUTDOWN: u8 = 0x06;
const K_ACCEPTED: u8 = 0x81;
const K_REJECTED: u8 = 0x82;
const K_JOB_STATUS: u8 = 0x83;
const K_RESULT_HEADER: u8 = 0x84;
const K_CHUNK: u8 = 0x85;
const K_RESULT_END: u8 = 0x86;
const K_METRICS_REPLY: u8 = 0x87;
const K_OKAY: u8 = 0x88;
const K_ERROR: u8 = 0x89;

fn put_bytes(w: &mut ByteWriter, bytes: &[u8]) {
    w.put_u32(bytes.len() as u32);
    w.put_slice(bytes);
}

/// Everything of a CHUNK payload but the data itself, whose length prefix
/// comes last: shared by [`Frame::encode`] and [`write_chunk`].
fn put_chunk_head(w: &mut ByteWriter, job: u64, channel: Channel, data_len: usize) {
    w.put_u8(K_CHUNK);
    w.put_u64(job);
    w.put_u8(channel.as_u8());
    w.put_u32(data_len as u32);
}

fn put_times(w: &mut ByteWriter, t: &JobTimes) {
    w.put_u64(t.accepted_ns);
    w.put_u64(t.started_ns);
    w.put_u64(t.finished_ns);
}

fn get_times(r: &mut ByteReader<'_>) -> Result<JobTimes, FrameError> {
    Ok(JobTimes {
        accepted_ns: r.get_u64().ok_or(FrameError::Truncated)?,
        started_ns: r.get_u64().ok_or(FrameError::Truncated)?,
        finished_ns: r.get_u64().ok_or(FrameError::Truncated)?,
    })
}

/// Reads one length-prefixed byte field; the declared length is validated
/// against both [`MAX_FRAME_LEN`] and the remaining payload.
fn get_bytes<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], FrameError> {
    let len = r.get_u32().ok_or(FrameError::Truncated)? as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { declared: len as u64 });
    }
    r.take(len).ok_or(FrameError::Truncated)
}

fn get_string(r: &mut ByteReader<'_>) -> Result<String, FrameError> {
    let bytes = get_bytes(r)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)
}

impl Frame {
    /// Encodes this frame's payload (kind byte + body, *without* the
    /// `u32` length prefix — [`write_frame`] adds it).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(32);
        match self {
            Frame::Submit { scenario, seed, ticks, flags } => {
                w.put_u8(K_SUBMIT);
                put_bytes(&mut w, scenario.as_bytes());
                w.put_u64(*seed);
                w.put_u32(*ticks);
                w.put_u32(*flags);
            }
            Frame::Status { job } => {
                w.put_u8(K_STATUS);
                w.put_u64(*job);
            }
            Frame::Result { job } => {
                w.put_u8(K_RESULT);
                w.put_u64(*job);
            }
            Frame::Cancel { job } => {
                w.put_u8(K_CANCEL);
                w.put_u64(*job);
            }
            Frame::Metrics => w.put_u8(K_METRICS),
            Frame::Shutdown => w.put_u8(K_SHUTDOWN),
            Frame::Accepted { job } => {
                w.put_u8(K_ACCEPTED);
                w.put_u64(*job);
            }
            Frame::Rejected { reason, detail } => {
                w.put_u8(K_REJECTED);
                w.put_u8(reason.as_u8());
                put_bytes(&mut w, detail.as_bytes());
            }
            Frame::JobStatus { job, phase, queue_depth, times } => {
                w.put_u8(K_JOB_STATUS);
                w.put_u64(*job);
                w.put_u8(phase.as_u8());
                w.put_u32(*queue_depth);
                put_times(&mut w, times);
            }
            Frame::ResultHeader { job, phase, checksum, stats_len, trace_len, times } => {
                w.put_u8(K_RESULT_HEADER);
                w.put_u64(*job);
                w.put_u8(phase.as_u8());
                w.put_u64(*checksum);
                w.put_u64(*stats_len);
                w.put_u64(*trace_len);
                put_times(&mut w, times);
            }
            Frame::Chunk { job, channel, data } => {
                put_chunk_head(&mut w, *job, *channel, data.len());
                w.put_slice(data);
            }
            Frame::ResultEnd { job } => {
                w.put_u8(K_RESULT_END);
                w.put_u64(*job);
            }
            Frame::MetricsReply { json } => {
                w.put_u8(K_METRICS_REPLY);
                put_bytes(&mut w, json.as_bytes());
            }
            Frame::Okay => w.put_u8(K_OKAY),
            Frame::Error { detail } => {
                w.put_u8(K_ERROR);
                put_bytes(&mut w, detail.as_bytes());
            }
        }
        w.into_vec()
    }

    /// Decodes one frame from a complete payload (as returned by
    /// [`read_frame`]). Rejects trailing bytes: a payload must be exactly
    /// one frame.
    pub fn decode(payload: &[u8]) -> Result<Frame, FrameError> {
        let mut r = ByteReader::new(payload);
        let kind = r.get_u8().ok_or(FrameError::Truncated)?;
        let u64_of = |r: &mut ByteReader<'_>| r.get_u64().ok_or(FrameError::Truncated);
        let u32_of = |r: &mut ByteReader<'_>| r.get_u32().ok_or(FrameError::Truncated);
        let u8_of = |r: &mut ByteReader<'_>| r.get_u8().ok_or(FrameError::Truncated);
        let frame = match kind {
            K_SUBMIT => Frame::Submit {
                scenario: get_string(&mut r)?,
                seed: u64_of(&mut r)?,
                ticks: u32_of(&mut r)?,
                flags: u32_of(&mut r)?,
            },
            K_STATUS => Frame::Status { job: u64_of(&mut r)? },
            K_RESULT => Frame::Result { job: u64_of(&mut r)? },
            K_CANCEL => Frame::Cancel { job: u64_of(&mut r)? },
            K_METRICS => Frame::Metrics,
            K_SHUTDOWN => Frame::Shutdown,
            K_ACCEPTED => Frame::Accepted { job: u64_of(&mut r)? },
            K_REJECTED => Frame::Rejected {
                reason: RejectReason::from_u8(u8_of(&mut r)?)?,
                detail: get_string(&mut r)?,
            },
            K_JOB_STATUS => Frame::JobStatus {
                job: u64_of(&mut r)?,
                phase: JobPhase::from_u8(u8_of(&mut r)?)?,
                queue_depth: u32_of(&mut r)?,
                times: get_times(&mut r)?,
            },
            K_RESULT_HEADER => Frame::ResultHeader {
                job: u64_of(&mut r)?,
                phase: JobPhase::from_u8(u8_of(&mut r)?)?,
                checksum: u64_of(&mut r)?,
                stats_len: u64_of(&mut r)?,
                trace_len: u64_of(&mut r)?,
                times: get_times(&mut r)?,
            },
            K_CHUNK => Frame::Chunk {
                job: u64_of(&mut r)?,
                channel: Channel::from_u8(u8_of(&mut r)?)?,
                data: get_bytes(&mut r)?.to_vec(),
            },
            K_RESULT_END => Frame::ResultEnd { job: u64_of(&mut r)? },
            K_METRICS_REPLY => Frame::MetricsReply { json: get_string(&mut r)? },
            K_OKAY => Frame::Okay,
            K_ERROR => Frame::Error { detail: get_string(&mut r)? },
            other => return Err(FrameError::UnknownKind(other)),
        };
        if r.remaining() > 0 {
            return Err(FrameError::TrailingBytes(r.remaining()));
        }
        Ok(frame)
    }
}

/// Writes one frame: `u32` big-endian payload length, then the payload.
pub fn write_frame<W: Write>(out: &mut W, frame: &Frame) -> io::Result<()> {
    let payload = frame.encode();
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "encoded frame exceeds MAX_FRAME_LEN");
    out.write_all(&(payload.len() as u32).to_be_bytes())?;
    out.write_all(&payload)
}

/// Writes the frame `Frame::Chunk { job, channel, data }` straight from the
/// borrowed slice — the bytes [`write_frame`] would send, without copying
/// `data` into a frame and again into its encoding.
pub fn write_chunk<W: Write>(
    out: &mut W,
    job: u64,
    channel: Channel,
    data: &[u8],
) -> io::Result<()> {
    let mut head = ByteWriter::with_capacity(16);
    put_chunk_head(&mut head, job, channel, data.len());
    let head = head.into_vec();
    let len = head.len() + data.len();
    debug_assert!(len <= MAX_FRAME_LEN, "chunk frame exceeds MAX_FRAME_LEN");
    out.write_all(&(len as u32).to_be_bytes())?;
    out.write_all(&head)?;
    out.write_all(data)
}

/// Reads one frame payload from a byte stream.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary. A declared
/// length above [`MAX_FRAME_LEN`] yields `InvalidData` *before* any
/// allocation; an EOF inside a frame yields `UnexpectedEof`. Handles
/// short reads (the length prefix and payload may arrive in arbitrarily
/// small pieces).
pub fn read_frame<R: Read>(input: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match input.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Oversized { declared: len as u64 }.to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Reads and decodes one frame; `Ok(None)` on clean EOF.
pub fn read_decode<R: Read>(input: &mut R) -> io::Result<Option<Frame>> {
    match read_frame(input)? {
        None => Ok(None),
        Some(payload) => Frame::decode(&payload)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}

/// FNV-1a over one or more byte slices, in order — the RESULT checksum.
/// Deterministic, dependency-free, and stable across platforms.
pub fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) {
        let payload = frame.encode();
        assert!(payload.len() <= MAX_FRAME_LEN);
        assert_eq!(&Frame::decode(&payload).unwrap(), frame, "roundtrip mismatch");
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        let times = JobTimes { accepted_ns: 1, started_ns: 2, finished_ns: 3 };
        for frame in [
            Frame::Submit { scenario: "urban-epidemic".into(), seed: 7, ticks: 120, flags: 1 },
            Frame::Status { job: 42 },
            Frame::Result { job: 42 },
            Frame::Cancel { job: 42 },
            Frame::Metrics,
            Frame::Shutdown,
            Frame::Accepted { job: 9 },
            Frame::Rejected { reason: RejectReason::QueueFull, detail: "queue full".into() },
            Frame::JobStatus { job: 9, phase: JobPhase::Running, queue_depth: 3, times },
            Frame::ResultHeader {
                job: 9,
                phase: JobPhase::Done,
                checksum: 0xDEAD_BEEF,
                stats_len: 100,
                trace_len: 0,
                times,
            },
            Frame::Chunk { job: 9, channel: Channel::Trace, data: vec![1, 2, 3] },
            Frame::ResultEnd { job: 9 },
            Frame::MetricsReply { json: "{}".into() },
            Frame::Okay,
            Frame::Error { detail: "unknown job".into() },
        ] {
            roundtrip(&frame);
        }
    }

    #[test]
    fn stream_roundtrip_handles_multiple_frames() {
        let frames =
            vec![Frame::Metrics, Frame::Accepted { job: 1 }, Frame::Status { job: 1 }, Frame::Okay];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        let mut decoded = Vec::new();
        while let Some(f) = read_decode(&mut cursor).unwrap() {
            decoded.push(f);
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn write_chunk_sends_the_bytes_of_a_chunk_frame() {
        for (job, channel, len) in [
            (0u64, Channel::Stats, 0usize),
            (9, Channel::Trace, 3),
            (u64::MAX, Channel::Stats, 291),
            (0x0102_0304_0506_0708, Channel::Trace, CHUNK_LEN),
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut borrowed = Vec::new();
            write_chunk(&mut borrowed, job, channel, &data).unwrap();
            let mut owned = Vec::new();
            write_frame(&mut owned, &Frame::Chunk { job, channel, data: data.clone() }).unwrap();
            assert_eq!(borrowed, owned, "job {job:#x}, {len} bytes");
            let decoded = read_decode(&mut io::Cursor::new(borrowed)).unwrap();
            assert_eq!(decoded, Some(Frame::Chunk { job, channel, data }));
        }
    }

    #[test]
    fn truncated_payload_errors_not_panics() {
        let full = Frame::Submit { scenario: "urban".into(), seed: 1, ticks: 2, flags: 0 }.encode();
        for cut in 0..full.len() {
            let err = Frame::decode(&full[..cut]);
            assert!(err.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        // Stream level: a 4 GiB declared frame must be refused.
        let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Field level: a string length larger than the cap is refused even
        // when the payload itself is small.
        let mut w = ByteWriter::with_capacity(16);
        w.put_u8(0x01); // SUBMIT
        w.put_u32(u32::MAX); // absurd scenario length
        let err = Frame::decode(&w.into_vec()).unwrap_err();
        assert_eq!(err, FrameError::Oversized { declared: u32::MAX as u64 });
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_rejected() {
        assert_eq!(Frame::decode(&[0x7f]), Err(FrameError::UnknownKind(0x7f)));
        assert_eq!(Frame::decode(&[]), Err(FrameError::Truncated));
        let mut payload = Frame::Okay.encode();
        payload.push(0xFF);
        assert_eq!(Frame::decode(&payload), Err(FrameError::TrailingBytes(1)));
    }

    #[test]
    fn bad_utf8_scenario_is_rejected() {
        let mut w = ByteWriter::with_capacity(16);
        w.put_u8(0x01);
        w.put_u32(2);
        w.put_slice(&[0xFF, 0xFE]);
        w.put_u64(1);
        w.put_u32(1);
        w.put_u32(0);
        assert_eq!(Frame::decode(&w.into_vec()), Err(FrameError::BadUtf8));
    }

    #[test]
    fn clean_eof_returns_none_partial_prefix_errors() {
        let mut empty = io::Cursor::new(Vec::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
        let mut partial = io::Cursor::new(vec![0u8, 0]);
        let err = read_frame(&mut partial).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_eq!(fnv1a64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(&[b"ab"]), fnv1a64(&[b"a", b"b"]));
        assert_ne!(fnv1a64(&[b"ab"]), fnv1a64(&[b"ba"]));
    }
}
