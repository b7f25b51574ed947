"""Known-bad fixture for RL009: buffer/segment handles that leak.

Line numbers are asserted exactly in tests/test_analysis.py — keep the
layout stable when editing.
"""

from repro.storage.buffers import MappedBuffer
from repro.storage.segments import SegmentWriter


def leaks_on_fallthrough(path):
    buf = MappedBuffer.from_file(path)  # line 12: never released
    total = buf.view().sum()
    return total


def leaks_on_exception(path):
    buf = MappedBuffer.from_file(path)  # line 18: leaks if sum() raises
    total = buf.view().sum()
    buf.close()
    return total


def discards_handle(snapshot):
    snapshot.mapped("vectors")  # line 25: discarded immediately


def writer_never_commits(root, arr):
    writer = SegmentWriter(root)  # line 29: falls through uncommitted
    writer.append(arr)


def clean_try_finally(path):
    buf = MappedBuffer.from_file(path)
    try:
        total = buf.view().sum()
    finally:
        buf.close()
    return total


def clean_writer(root, arr):
    # An exception between construction and commit is crash-safe by
    # design (readers never see an uncommitted segment): not flagged.
    writer = SegmentWriter(root)
    writer.append(arr)
    writer.commit()
