"""The reader of the raw records feed behind timeseries.read_raw_records.

timeseries imports it only when ingest reads a feed, so that select and
evaluate neither compile nor hold its code.

A feed of at least two ranges of MIN_RANGE_BYTES is read in one byte
range per usable CPU, each cut just past a newline, when it holds no
quote and this process may fork. This process parses the first range,
past the header, and a forked child each other one, all with
timeseries._parse_records, the row loop of a one-range read. A child
writes to a pipe, as raw bytes: two int64 (its records, and the bytes of
its station names), the names in order of first appearance, each ended
by a newline, then the columns code, moment, bikes and spaces. The
parent merges one column at a time in file order and recodes each
child's stations in order of first appearance, so its table is the
one-range read's. A record that fails to parse, a child that sends too
little or a fork that fails makes the parent redo a one-range read,
which raises the first bad line.
"""

import csv
import io
import os
from array import array

import numpy as np

from .errors import InvalidInputError
from .timeseries import (
    MAX_MOMENT,
    MIN_MOMENT,
    _parse_moment,
    _parse_records,
    csv_rows,
    float_fields,
)

# the least bytes of a feed that read_records gives a range of its own
MIN_RANGE_BYTES = 1 << 20
# bytes of the feed read at a time. A chunk's buffers, its text at up to
# 4 bytes a character among them, stay below glibc's first mmap threshold
# (128 KiB): a freed mapping raises that threshold, and the parsed columns
# then grow in the heap, whose freed pages stay resident and raise
# ingest's peak memory
READ_CHUNK = 1 << 14


def read_records(path):
    """timeseries.read_raw_records(path)."""
    count = _range_count(path)
    if count == 1:
        return _read_one_range(path)
    cuts = _cuts(path, count)
    children, records = [], None
    try:
        for start, end in zip(cuts[1:-1], cuts[2:]):
            children.append(_fork(path, start, end, [pipe for _, pipe in children]))
        records = _merge(path, cuts[1], [pipe for _, pipe in children])
    except OSError:
        # a fork or a pipe that the system refused; the one-range read
        # raises what keeps the file itself from reading
        pass
    finally:
        # a child still sending finds its pipe closed and exits
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return _read_one_range(path) if records is None else records


def _raw_rows(fh, path):
    """The csv_rows of a raw records file past its checked header."""
    rows = csv_rows(fh, path)
    if [h.strip() for h in next(rows)[1]] != ["station", "moment", "bikes", "spaces"]:
        raise InvalidInputError(
            f"{path}: line 1: expected header 'station,moment,bikes,spaces'"
        )
    return rows


def _raise_first_bad_record(path):
    """Re-read a raw records file row by row and raise the error of its
    first bad record. The reads check whole columns at once, so they
    call this, once they know some record is bad, to name the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in _raw_rows(fh, path):
            where = f"{path}: line {line}"
            _parse_moment(row[1], where)
            float_fields(row[2:], "bikes/spaces", where)
    raise InvalidInputError(f"{path}: a record failed to read but none is bad on re-reading")


def _read_one_range(path):
    """read_records(path) read by this process alone."""
    codes = {}
    with open(path, newline="", encoding="utf-8") as fh:
        _raw_rows(fh, path)  # checks the header
        try:
            columns = _parse_records(fh, codes)
        except (ValueError, csv.Error):
            _raise_first_bad_record(path)
    return _sorted_records(path, codes, columns)


def _sorted_records(path, codes, columns):
    """read_raw_records' dict from codes and the list columns of every
    record of path in file order: code, moment, bikes and spaces. It
    empties columns, so that each is freed once it is sorted into the
    table."""
    code, moment, bikes, spaces = columns
    del columns[0]
    # NaN fails both comparisons
    if not (np.all((moment >= MIN_MOMENT) & (moment <= MAX_MOMENT))
            and np.all(np.isfinite(bikes)) and np.all(np.isfinite(spaces))):
        _raise_first_bad_record(path)
    order = np.lexsort((moment, code))
    ends = np.cumsum(np.bincount(code))
    # the codes are freed, and each column is sorted straight into a
    # contiguous table row and freed: the codes, a sorted column or a
    # sorted copy (take's default mode makes one) beside the table would
    # raise ingest's peak
    del code, moment, bikes, spaces
    table = np.empty((3, order.size))
    for row in table:
        np.take(columns.pop(0), order, out=row, mode="clip")
    return dict(zip(codes, np.split(table.T, ends[:-1])))


def _range_count(path):
    """How many byte ranges path is read in: one per usable CPU, each of
    at least MIN_RANGE_BYTES. It is one where the process cannot fork or
    runs more threads than this one (a fork of a threaded process may
    deadlock), or where a quote in the feed could put the start of a
    range inside a quoted field."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    count = min(len(os.sched_getaffinity(0)), os.path.getsize(path) // MIN_RANGE_BYTES)
    if count < 2 or _thread_count() != 1:
        return 1
    with open(path, "rb") as fh:
        chunks = iter(lambda: fh.read(READ_CHUNK), b"")
        return 1 if any(b'"' in chunk for chunk in chunks) else count


def _thread_count():
    """The threads of this process, from Linux's /proc/self/stat, where
    CPython 3.12 reads them before it warns that a fork may deadlock;
    None elsewhere."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # the fields past the parenthesized command; num_threads is 20th of all
            return int(fh.read().rsplit(b")", 1)[1].split()[17])
    except OSError:
        return None


def _range_lines(path, start, end):
    """The lines of bytes start to end of path, which end is just past a
    newline or at the end of the file, as open(path, newline="",
    encoding="utf-8") decodes and splits them."""
    with open(path, "rb") as fh:
        fh.seek(start)
        left = end - start
        while left > 0:
            chunk = fh.read(min(left, READ_CHUNK))
            if len(chunk) < left:
                chunk += fh.readline()
            if not chunk:
                return
            left -= len(chunk)
            yield from io.StringIO(chunk.decode("utf-8"), newline="")


def _cuts(path, count):
    """Offsets 0 < ... < size of path that cut it into at most count
    ranges of about equal size, each cut just past a newline."""
    size = os.path.getsize(path)
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, count):
            fh.seek(max(k * size // count, cuts[-1]))
            fh.readline()
            cuts.append(fh.tell())
    return sorted(set(cuts) | {size})


def _send(path, start, end, pipe):
    """Parse bytes start to end of path and write them to pipe, as the
    module docstring lays out."""
    codes = {}
    columns = _parse_records(_range_lines(path, start, end), codes)
    names = "".join(station + "\n" for station in codes).encode("utf-8")
    pipe.write(array("q", [len(columns[0]), len(names)]))
    pipe.write(names)
    for column in columns:
        pipe.write(column)


def _fork(path, start, end, pipes):
    """The pid of a forked child that _sends bytes start to end of path,
    and the read end of its pipe. pipes are the read ends of earlier
    children, which the child closes."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            for pipe in pipes:
                os.close(pipe.fileno())
            with open(write_fd, "wb") as pipe:
                _send(path, start, end, pipe)
            status = 0
        finally:
            # never back into the caller's code, nor its exit handlers
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _merge(path, end, pipes):
    """read_records' dict from this process's parse of bytes 0 to end of
    path and what each pipe sends; None when a record fails to parse or
    a pipe sends too little."""
    codes = {}
    lines = _range_lines(path, 0, end)
    try:
        # a bad header, or an error that this decoding ahead meets first,
        # is the one-range read's to name
        _raw_rows(lines, path)
        own = _parse_records(lines, codes)
    except (ValueError, csv.Error, InvalidInputError):
        return None
    counts, recodes = [own[0].size], []
    for pipe in pipes:
        head = array("q", bytes(16))
        if pipe.readinto(head) != len(head) * head.itemsize:
            return None
        records, size = head
        names = pipe.read(size)
        if len(names) != size:
            return None
        recodes.append(np.array([codes.setdefault(station, len(codes)) for station
                                 in names.decode("utf-8").split("\n")[:-1]], dtype=np.int64))
        counts.append(records)
    starts = np.cumsum([0] + counts).tolist()
    columns = []
    for k in range(len(own)):
        column = np.empty(starts[-1], dtype=own[k].dtype)
        column[:starts[1]] = own[k]
        own[k] = None
        for pipe, lo, hi, recode in zip(pipes, starts[1:], starts[2:], recodes):
            part = column[lo:hi]
            if pipe.readinto(part) != part.nbytes:
                return None
            if k == 0:
                np.take(recode, part, out=part)
        columns.append(column)
    return _sorted_records(path, codes, columns)
