"""series.merged_segments' traffic drawn in a forked child process, so
that drawing one time segment overlaps the merge and the oracle of the one
before; and pipeline.generate_flow_inflows' odd-numbered flows drawn in
such a child while the parent draws the others.

The child and its parent share one slot of memory, mapped before the fork,
and two pipes: the child announces a segment written to the slot, and the
parent acknowledges the slot once it has copied the segment out of it.
"""

import mmap
import os
import pickle
import signal

import numpy as np


# the shared slot's capacity in packet times: a larger segment is shipped
# through it in pieces
_SLOT = 1 << 20
_END = -1 << 63     # the length of the end message, which no payload has


def drawn_in_child(drawn, take):
    """take(runs) for each segment of ``drawn``, drawn in a forked child
    process.

    Each segment is a list of runs, each run a sequence of float arrays,
    its parts.  The child writes a segment's parts, run after run, into a
    slot of shared memory mapped before the fork, and announces it over a
    pipe with the runs' sizes.  Here ``take`` is called on the runs, each
    one array viewing the slot, and must copy out what it keeps; then the
    slot is acknowledged over a second pipe, and only then does the child
    write it again.  So the child writes the next segment, drawn into its
    own memory meanwhile, while the caller uses take's result.  A segment
    larger than the slot comes in slot-sized pieces, each acknowledged as
    soon as it is copied out, and take sees the runs joined here.  The
    stream returns at the end the child sends after its last segment.  An
    exception in the child is raised here, pickled over, and one that exits
    before the end raises RuntimeError; one that finds a pipe closed exits.

    The child is forked here, so it draws while the caller goes on.
    Closing the returned generator kills and reaps the child, also before
    the first segment is asked for.
    """
    stream = _stream(drawn, take)
    next(stream)    # runs up to the fork and into the try that reaps
    return stream


def shared_with_child(draw, items):
    """[draw(x) for x in items], the odd-numbered items drawn in a forked
    child (drawn_in_child) while this process draws the even-numbered ones.
    Each draw gives one float array; the child's come back copied.  The
    results are taken in item order, so the exception raised is that of the
    first item whose draw raises, wherever it was drawn."""
    theirs = drawn_in_child(([[draw(x)]] for x in items[1::2]),
                            lambda runs: runs[0].copy())
    try:
        return [next(theirs) if i % 2 else draw(x)
                for i, x in enumerate(items)]
    finally:
        theirs.close()


def _stream(drawn, take):
    """drawn_in_child's generator: its first step forks."""
    slot = mmap.mmap(-1, 8 * _SLOT)
    cells = np.frombuffer(slot)
    data_r, data_w = os.pipe()
    ack_r, ack_w = os.pipe()
    pid = os.fork()
    if pid == 0:    # the child: it never returns into the caller's frames
        status = 1
        try:
            os.close(data_r)
            os.close(ack_w)
            status = _serve(drawn, cells, data_w, ack_r)
        finally:
            os._exit(status)
    os.close(data_w)
    os.close(ack_r)
    try:
        yield
        while (header := _receive(data_r)) is not None:
            sizes = np.frombuffer(header, dtype=np.int64)
            total = int(sizes.sum())
            if total <= cells.size:
                data = cells[:total]
            else:
                data = np.empty(total)
                for lo in range(0, total, cells.size):
                    if lo:
                        _ack(ack_w)
                        _receive(data_r)
                    hi = min(lo + cells.size, total)
                    data[lo:hi] = cells[:hi - lo]
            taken = take(np.split(data, np.cumsum(sizes)[:-1]))
            del data    # a copied-out oversized segment is not kept
            _ack(ack_w)
            yield taken
    finally:
        os.close(data_r)
        os.close(ack_w)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _serve(drawn, cells, out_fd, ack_fd):
    """The child's side of drawn_in_child.  Each segment's parts are
    written straight into the slot, run after run, once the slot is
    acknowledged; a slot that fills before the segment ends is sent as a
    piece, and written again once that is acknowledged.  Returns its exit
    status: 0 when every segment and the end were sent or the parent
    closed the acknowledgements, 1 after sending an exception."""
    owed = False    # the slot holds a segment not yet acknowledged
    try:
        for runs in drawn:
            header = np.array([sum(part.size for part in run)
                               for run in runs], dtype=np.int64).tobytes()
            if owed and not os.read(ack_fd, 1):
                return 0
            at = 0
            for run in runs:
                for part in run:
                    while at + part.size > cells.size:
                        step = cells.size - at
                        cells[at:] = part[:step]
                        part = part[step:]
                        _send(out_fd, header, len(header))
                        header, at = b"", 0
                        if not os.read(ack_fd, 1):
                            return 0
                    cells[at:at + part.size] = part
                    at += part.size
            _send(out_fd, header, len(header))
            owed = True
    except Exception as exc:
        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = pickle.dumps(RuntimeError(repr(exc)))
        _send(out_fd, payload, -len(payload))
        return 1
    _send(out_fd, b"", _END)
    return 0


def _ack(fd):
    """Acknowledge the slot.  A child that has sent its last segment, or an
    exception, may have exited: what it sent is still in the pipe."""
    try:
        os.write(fd, b"\0")
    except BrokenPipeError:
        pass


def _send(fd, payload, length):
    """One message: ``length`` as 8 signed bytes, then the payload.  It is
    len(payload), negated for a pickled exception, or _END."""
    view = memoryview(length.to_bytes(8, "little", signed=True) + payload)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd):
    """The payload of the next message on ``fd``, None at the end; a
    pickled exception is raised."""
    length = int.from_bytes(_read(fd, 8), "little", signed=True)
    if length == _END:
        return None
    payload = _read(fd, abs(length))
    if length < 0:
        raise pickle.loads(payload)
    return payload


def _read(fd, size):
    data = b""
    while len(data) < size:
        part = os.read(fd, size - len(data))
        if not part:
            raise RuntimeError("the traffic process ended before its last "
                               "segment")
        data += part
    return data
