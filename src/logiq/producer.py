"""series.merged_segments' traffic drawn in a forked child process, so
that drawing one time segment overlaps the merge and the oracle of the one
before; and pipeline.generate_flow_inflows' odd-numbered flows drawn in
such a child while the parent draws the others.

The child and its parent share one slot of memory, mapped before the fork,
and two pipes: the child announces a segment written to the slot, and the
parent acknowledges the slot once it has merged from it.
"""

import mmap
import os
import pickle
import signal

import numpy as np


# the shared slot's capacity in packet times: a larger segment is shipped
# through it in pieces
_SLOT = 1 << 20


def drawn_in_child(drawn):
    """The segments of ``drawn``, drawn in a forked child process.

    The child writes a segment's runs, joined, into a slot of shared memory
    mapped before the fork, and announces it over a pipe with the runs'
    sizes; the runs yielded view the slot.  When the caller asks for the
    next segment, the slot is acknowledged over a second pipe, and only
    then does the child write it again: it draws the next segment into its
    own memory meanwhile.  A segment larger than the slot comes in
    slot-sized pieces, each acknowledged as soon as it is copied out.  An
    exception in the child is raised here, pickled over; a child that
    finds a pipe closed exits.

    The child is forked here, so it draws while the caller goes on.
    Closing the returned generator kills and reaps the child, also before
    the first segment is asked for.
    """
    stream = _stream(drawn)
    next(stream)    # runs up to the fork and into the try that reaps
    return stream


def shared_with_child(draw, items):
    """[draw(x) for x in items], the odd-numbered items drawn in a forked
    child (drawn_in_child) while this process draws the even-numbered ones.
    Each draw gives one float array; the child's come back copied.  The
    results are taken in item order, so the exception raised is that of the
    first item whose draw raises, wherever it was drawn."""
    theirs = drawn_in_child([draw(x)] for x in items[1::2])
    try:
        return [next(theirs)[0].copy() if i % 2 else draw(x)
                for i, x in enumerate(items)]
    finally:
        theirs.close()


def _stream(drawn):
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
        while True:
            sizes = np.frombuffer(_receive(data_r), dtype=np.int64)
            total = int(sizes.sum())
            owed = total <= cells.size
            if owed:
                data = cells[:total]
            else:
                data = np.empty(total)
                for lo in range(0, total, cells.size):
                    if lo:
                        _receive(data_r)
                    hi = min(lo + cells.size, total)
                    data[lo:hi] = cells[:hi - lo]
                    _ack(ack_w)
            yield np.split(data, np.cumsum(sizes)[:-1])
            if owed:
                _ack(ack_w)
    finally:
        os.close(data_r)
        os.close(ack_w)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _serve(drawn, cells, out_fd, ack_fd):
    """The child's side of drawn_in_child.  Returns its exit status: 0
    when every segment was sent or the parent closed the acknowledgements,
    1 after sending an exception."""
    owed = False
    try:
        for taken in drawn:
            sizes = np.array([r.size for r in taken], dtype=np.int64)
            total = int(sizes.sum())
            pieces = [taken]
            if total > cells.size:
                flat = np.concatenate(taken)
                pieces = [[flat[lo:lo + cells.size]]
                          for lo in range(0, total, cells.size)]
            for i, piece in enumerate(pieces):
                if owed and not os.read(ack_fd, 1):
                    return 0
                at = 0
                for r in piece:
                    cells[at:at + r.size] = r
                    at += r.size
                _send(out_fd, b"" if i else sizes.tobytes())
                owed = True
    except Exception as exc:
        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = pickle.dumps(RuntimeError(repr(exc)))
        _send(out_fd, payload, error=True)
        return 1
    return 0


def _ack(fd):
    """Acknowledge the slot.  A child that has sent its last segment, or an
    exception, may have exited: what it sent is still in the pipe."""
    try:
        os.write(fd, b"\0")
    except BrokenPipeError:
        pass


def _send(fd, payload, error=False):
    """One message: its length as 8 signed bytes, negative for a pickled
    exception, then the payload."""
    length = -len(payload) if error else len(payload)
    view = memoryview(length.to_bytes(8, "little", signed=True) + payload)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd):
    """The payload of the next message on ``fd``; a pickled exception is
    raised."""
    length = int.from_bytes(_read(fd, 8), "little", signed=True)
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
