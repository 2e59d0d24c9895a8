//! Binary-protocol glue: translate `proust-codec` request frames into
//! the same [`Seg`] stream the text protocol produces, so both wires
//! share one execution path (commit batching, latency accounting, STATS
//! serialization) and differ only in encoding.
//!
//! Frame-level faults (bad magic, oversized payload, malformed batch)
//! answer one `ERR` frame and close the connection — the stream cannot
//! be resynchronized. Request-level faults (unknown opcode, bad name,
//! wrong arg count) answer `ERR` but keep the connection, matching the
//! text protocol's treatment of malformed lines.

use proust_codec as codec;
use proust_codec::{op, FrameView, Parsed};
use proust_reactor::{Conn, Directive};
use std::time::Instant;

use crate::engine::{Resp, Unit};
use crate::proto::{self, Cmd, MAX_DELTA};
use crate::{run_segments, Seg, Shared, StageCtx, Wire};

/// Drain complete frames from the connection's input buffer, execute
/// them, and queue encoded responses. Called by the reactor shard
/// whenever the buffer may hold complete requests.
pub(crate) fn on_data(shared: &Shared, conn: &mut Conn, ctx: &StageCtx) -> Directive {
    let mut segs: Vec<Seg> = Vec::new();
    let mut quit = false;
    let mut shutdown = false;
    let mut fault = false;
    while !quit && !fault {
        // The parse borrows the input buffer; translation produces an
        // owned segment so the borrow ends before the drain.
        let consumed = match codec::parse_frame(&conn.inbuf, codec::REQ_MAGIC) {
            Ok(Parsed::Incomplete) => break,
            Ok(Parsed::Frame { view, consumed }) => {
                translate(shared, &view, &mut segs, &mut quit, &mut shutdown);
                consumed
            }
            Err(err) => {
                shared.engine.note_protocol_error();
                let mut frame = Vec::new();
                codec::put_err(&mut frame, &format!("ERR {err}"));
                segs.push(Seg::Lit(frame));
                fault = true;
                0
            }
        };
        conn.inbuf.drain(..consumed);
    }
    let out = run_segments(shared, segs, Wire::Binary, ctx);
    conn.queue(&out);
    if shutdown {
        shared.begin_shutdown();
    }
    if quit || fault {
        // A faulted stream also discards whatever followed the bad frame.
        conn.inbuf.clear();
        return Directive::CloseAfterFlush;
    }
    Directive::Continue
}

/// Translate one request frame into segments, mirroring the text
/// protocol's `feed_line`.
fn translate(
    shared: &Shared,
    view: &FrameView<'_>,
    segs: &mut Vec<Seg>,
    quit: &mut bool,
    shutdown: &mut bool,
) {
    let err = |segs: &mut Vec<Seg>, msg: String| {
        shared.engine.note_protocol_error();
        let mut frame = Vec::new();
        codec::put_err(&mut frame, &format!("ERR {msg}"));
        segs.push(Seg::Lit(frame));
    };
    // A set TRACE flag asks the server to echo the request's waterfall
    // as a trailing INFO frame after its response.
    let echo = view.flags & codec::flag::TRACE != 0;
    match view.code {
        op::PING => {
            let mut frame = Vec::new();
            codec::put_status(&mut frame, codec::resp::PONG);
            segs.push(Seg::Lit(frame));
        }
        op::STATS => segs.push(Seg::Stats),
        op::SHUTDOWN => {
            *shutdown = true;
            let mut frame = Vec::new();
            codec::put_status(&mut frame, codec::resp::OK);
            segs.push(Seg::Lit(frame));
        }
        op::QUIT => {
            *quit = true;
            let mut frame = Vec::new();
            codec::put_status(&mut frame, codec::resp::OK);
            segs.push(Seg::Lit(frame));
        }
        op::BATCH => {
            // The whole batch is one atomic unit; any unresolvable inner
            // frame rejects the batch as a whole (text MULTI rejects the
            // offending line at QUEUED time instead — same effect, the
            // unit never executes partially).
            let inner = match view.batch(codec::REQ_MAGIC) {
                Ok(frames) => frames,
                Err(fault) => return err(segs, format!("{fault}")),
            };
            let mut ops = Vec::with_capacity(inner.len());
            for frame in &inner {
                let cmd = match to_cmd(frame) {
                    Ok(cmd) => cmd,
                    Err(msg) => return err(segs, msg),
                };
                match shared.engine.resolve(&cmd) {
                    Ok(resolved) => ops.push(resolved),
                    Err(msg) => return err(segs, msg),
                }
            }
            segs.push(Seg::Run(Unit { ops }, true, Instant::now(), echo));
        }
        _ => {
            let cmd = match to_cmd(view) {
                Ok(cmd) => cmd,
                Err(msg) => return err(segs, msg),
            };
            match shared.engine.resolve(&cmd) {
                Ok(resolved) => {
                    segs.push(Seg::Run(Unit { ops: vec![resolved] }, false, Instant::now(), echo))
                }
                Err(msg) => err(segs, msg),
            }
        }
    }
}

/// Decode a data-op frame into the shared [`Cmd`] model, enforcing the
/// same validity rules as the text parser (name charset/length, delta
/// bounds, scan bound ordering, exact argument counts).
pub(crate) fn to_cmd(view: &FrameView<'_>) -> Result<Cmd, String> {
    let name = || -> Result<String, String> {
        let name = view.name_str().ok_or_else(|| "name is not UTF-8".to_string())?;
        if !proto::valid_name(name) {
            return Err(format!("bad name {name:?}"));
        }
        Ok(name.to_string())
    };
    let args = |want: usize| -> Result<(), String> {
        if view.arg_count() != want || view.body.len() != want * 8 {
            return Err(format!("opcode 0x{:02X} wants {want} args", view.code));
        }
        Ok(())
    };
    let arg = |index: usize| view.arg(index).expect("arity checked");
    Ok(match view.code {
        op::MAP_GET => {
            args(1)?;
            Cmd::MapGet { name: name()?, key: arg(0) }
        }
        op::MAP_PUT => {
            args(2)?;
            Cmd::MapPut { name: name()?, key: arg(0), value: arg(1) }
        }
        op::MAP_DEL => {
            args(1)?;
            Cmd::MapDel { name: name()?, key: arg(0) }
        }
        op::CTR_GET => {
            args(0)?;
            Cmd::CounterGet { name: name()? }
        }
        op::CTR_INC => {
            args(1)?;
            let delta = arg(0);
            if delta == 0 || delta > MAX_DELTA {
                return Err(format!("delta must be in 1..={MAX_DELTA}"));
            }
            Cmd::CounterInc { name: name()?, delta }
        }
        op::Q_ENQ => {
            args(1)?;
            Cmd::QueueEnq { name: name()?, value: arg(0) }
        }
        op::Q_DEQ => {
            args(0)?;
            Cmd::QueueDeq { name: name()? }
        }
        op::ORD_PUT => {
            args(2)?;
            Cmd::OrdPut { name: name()?, key: arg(0), value: arg(1) }
        }
        op::ORD_GET => {
            args(1)?;
            Cmd::OrdGet { name: name()?, key: arg(0) }
        }
        op::ORD_DEL => {
            args(1)?;
            Cmd::OrdDel { name: name()?, key: arg(0) }
        }
        op::ORD_SCAN => {
            args(2)?;
            let (lo, hi) = (arg(0), arg(1));
            if lo > hi {
                return Err(format!("reversed scan bounds {lo} > {hi}"));
            }
            Cmd::OrdScan { name: name()?, lo, hi }
        }
        other => return Err(format!("unknown opcode 0x{other:02X}")),
    })
}

/// Encode one typed response as a binary frame.
pub(crate) fn encode_resp(out: &mut Vec<u8>, resp: &Resp) {
    match resp {
        Resp::Ok => codec::put_status(out, codec::resp::OK),
        Resp::Nil => codec::put_status(out, codec::resp::NIL),
        Resp::Value(value) => codec::put_value(out, *value),
        Resp::Entries(entries) => codec::put_entries(out, entries),
        Resp::Busy => codec::put_status(out, codec::resp::BUSY),
    }
}
