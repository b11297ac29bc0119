"""Reading and listing source files, each against the code it replaced.

`pipeline._read_text` reads a file with `os.open` and `os.read`, and must
give what `open(path, encoding="utf-8-sig").read()` gives: the same text,
or an exception of the same type and message. `pipeline._list_sources`
lists each directory with one `os.scandir`, and must give the list that a
sorted top-down `os.walk` gives, `reference_listing` below; a `.java`
symlink is the one intended difference (tests/test_pipeline.py)."""

import builtins
import errno
import io
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classaudit import pipeline
from classaudit.pipeline import Diagnostics, ingest_sources

from conftest import FIXTURES, field_view, refuse_listing


# ---- reading --------------------------------------------------------------------------

def reference_read(path):
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def outcome(read, path):
    """What ``read(path)`` returns, or the type and message of what it raises."""
    try:
        return read(path)
    except (OSError, UnicodeError) as exc:
        return type(exc), str(exc)


def assert_reads_as_open(path):
    want = outcome(reference_read, path)
    assert outcome(pipeline._read_text, path) == want
    return want


PIECES = [
    b"\n", b"\r\n", b"\r", b"class A { int x; }", b" ", b"x",
    "é".encode(), "€".encode(), "𝄞".encode(),  # two, three and four bytes
    b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9d\x84",  # invalid or truncated
    b"\xed\xa0\x80",  # an encoded surrogate, which strict UTF-8 rejects
    pipeline._BOM, b"\xef", b"\xef\xbb",
]


@settings(max_examples=400, deadline=None)
@given(bom=st.sampled_from([b"", pipeline._BOM, b"\xef", b"\xef\xbb"]),
       pieces=st.lists(st.sampled_from(PIECES), max_size=12),
       raw=st.binary(max_size=8))
def test_drawn_bytes_read_as_open_reads_them(tmp_path_factory, bom, pieces, raw):
    path = tmp_path_factory.getbasetemp() / "Drawn.java"
    path.write_bytes(bom + b"".join(pieces) + raw)
    assert_reads_as_open(str(path))


@pytest.mark.parametrize("data", [
    b"", pipeline._BOM, b"\xef", b"\xef\xbb", b"\xef\xbbx", pipeline._BOM * 2,
    b"\r", b"a\r", b"\r\r\n\n", pipeline._BOM + b"\r\n",
], ids=repr)
def test_short_files_read_as_open_reads_them(tmp_path, data):
    path = tmp_path / "Short.java"
    path.write_bytes(data)
    assert_reads_as_open(str(path))


@pytest.mark.parametrize("tail", ["€".encode(), "𝄞".encode(), b"\r\n", b"\xe2\x82x"],
                         ids=repr)
@pytest.mark.parametrize("bom", [b"", pipeline._BOM], ids=["plain", "bom"])
def test_a_character_across_a_read_boundary_reads_as_open_reads_it(tmp_path, tail, bom):
    path = tmp_path / "Large.java"
    path.write_bytes(bom + b"a" * (pipeline._READ_SIZE - len(bom) - 1) + tail + b"z" * 9)
    assert path.stat().st_size > pipeline._READ_SIZE
    assert_reads_as_open(str(path))


def test_every_fixture_file_reads_as_open_reads_it():
    paths = sorted(p for p in FIXTURES.rglob("*") if p.is_file())
    assert len(paths) > 20
    texts = [assert_reads_as_open(str(path)) for path in paths]
    assert all(isinstance(text, str) for text in texts)


def test_a_directory_or_missing_file_raises_as_open_does(tmp_path):
    assert assert_reads_as_open(str(tmp_path))[0] is IsADirectoryError
    assert assert_reads_as_open(str(tmp_path / "Missing.java"))[0] is FileNotFoundError


def skip_lines(root):
    diag = Diagnostics()
    assert list(ingest_sources([root], diagnostics=diag)) == []
    return diag.lines


def test_a_bad_byte_after_a_bom_is_reported_where_it_was(tmp_path):
    # The position counts from after the BOM, as `open` counts it.
    path = tmp_path / "A.java"
    path.write_bytes(pipeline._BOM + b"class A { char c = '\xe9'; }")
    assert skip_lines(tmp_path) == [
        f"SKIP {path}:0 'utf-8' codec can't decode byte 0xe9 in position 20: "
        "invalid continuation byte"]


def test_a_file_it_may_not_open_is_reported_by_name(tmp_path, monkeypatch):
    # As root, chmod cannot make a file unreadable; refuse it at os.open.
    path = tmp_path / "A.java"
    path.write_text("class A { }")
    real_open = os.open

    def refusing(file, flags, *args, **kwargs):
        if os.fspath(file) == str(path):
            raise PermissionError(errno.EACCES, "Permission denied", file)
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refusing)
    assert skip_lines(tmp_path) == [f"SKIP {path}:0 [Errno 13] Permission denied: '{path}'"]


def test_an_ingest_opens_no_file_object(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a file object was opened")

    want = [field_view(r) for r in ingest_sources([FIXTURES])]
    monkeypatch.setattr(builtins, "open", refused)
    monkeypatch.setattr(io, "open", refused)
    diag = Diagnostics()
    got = [field_view(r) for r in ingest_sources([FIXTURES], diagnostics=diag)]
    assert got == want and len(got) > 20
    assert diag.skipped == 0


# ---- listing --------------------------------------------------------------------------

def reference_listing(roots):
    """The listing as `os.walk` gave it: each directory's sorted .java names,
    then its sorted subdirectories, with the error of each subdirectory that
    cannot be listed where the walk met it."""
    inputs = []

    def unlisted(exc):
        if exc.filename == root:  # os.walk lists the root by the name given
            raise exc
        inputs.append(exc)

    for root in roots:
        root = os.fspath(root)
        if not os.path.isdir(root):
            raise FileNotFoundError(f"input root is not a directory: {root}")
        for dirpath, dirnames, filenames in os.walk(root, onerror=unlisted):
            dirnames.sort()
            inputs.extend(os.path.join(dirpath, fname) for fname in sorted(filenames)
                          if fname.endswith(".java"))
    return inputs


def comparable(listing):
    return [(type(x), str(x), x.filename) if isinstance(x, OSError) else x
            for x in listing]


def assert_lists_as_walk(roots):
    want = comparable(reference_listing(roots))
    assert comparable(pipeline._list_sources(roots)) == want
    return want


NAMES = ["B.java", "a.java", "Z.java", "_u.java", "b.Java", "A.JAVA", "10.java", "9.java",
         "notes.txt", "java", "x.javax", "Ä.java"]


def grow(directory, rng, depth):
    """Files and subdirectories under ``directory``, made in a shuffled
    order, so that creation order is not sorted order."""
    made = []
    names = rng.sample(NAMES, rng.randint(0, 6))
    subdirs = [] if depth == 0 else rng.sample(["sub", "Sub", "a", "x.java", "m"],
                                               rng.randint(0, 3))
    entries = [(name, False) for name in names] + [(name, True) for name in subdirs]
    rng.shuffle(entries)
    for name, is_dir in entries:
        path = directory / name
        if is_dir:
            path.mkdir()
            made.append(path)
            made += grow(path, rng, depth - 1)
        else:
            path.write_text("class A { }")
    return made


def make_tree(root, rng):
    """A generated tree under ``root`` with, besides what `grow` makes, a
    directory symlink (also one named like a source), a broken `.java`
    link, and a nested chain of directories. It returns the directories."""
    root.mkdir()
    dirs = grow(root, rng, 3)
    chain = root / "deep" / "deeper" / "deepest"
    chain.mkdir(parents=True)
    (chain / "D.java").write_text("class D { }")
    target = rng.choice(dirs) if dirs else chain
    os.symlink(target, root / "linked")
    os.symlink(target, root / "linked.java")
    os.symlink(root / "Missing.java", rng.choice([root, *dirs]) / "Broken.java")
    return [root, *dirs, chain.parent, chain]


@pytest.mark.parametrize("seed", range(30))
def test_a_generated_tree_lists_as_os_walk_lists_it(tmp_path, seed):
    rng = random.Random(seed)
    make_tree(tmp_path / "r", rng)
    listing = assert_lists_as_walk([tmp_path / "r"])
    assert any(path.endswith("D.java") for path in listing)
    assert not any("linked" in path for path in listing)


@pytest.mark.parametrize("seed", range(10))
def test_a_subdirectory_it_cannot_list_sits_where_os_walk_met_it(tmp_path, monkeypatch,
                                                                seed):
    rng = random.Random(seed)
    dirs = make_tree(tmp_path / "r", rng)
    refuse_listing(monkeypatch, rng.choice(dirs[1:]))
    listing = assert_lists_as_walk([tmp_path / "r"])
    assert sum(isinstance(x, tuple) for x in listing) == 1


@pytest.mark.parametrize("written", ["r/", "./r", "r", "./r/"])
def test_a_root_lists_by_the_name_given(tmp_path, monkeypatch, written):
    make_tree(tmp_path / "r", random.Random(7))
    monkeypatch.chdir(tmp_path)
    listing = assert_lists_as_walk([written])
    assert all(path.startswith(written) for path in listing)


def test_several_roots_list_in_the_order_given(tmp_path):
    for name, seed in (("b", 1), ("a", 2)):
        make_tree(tmp_path / name, random.Random(seed))
    assert_lists_as_walk([tmp_path / "b", tmp_path / "a"])


def test_a_root_it_cannot_list_raises_as_os_walk_did(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("class A { }")
    refuse_listing(monkeypatch, tmp_path)
    for listing in (reference_listing, pipeline._list_sources):
        with pytest.raises(PermissionError) as raised:
            listing([tmp_path])
        assert raised.value.filename == str(tmp_path)


def test_a_tree_without_java_links_is_not_checked_for_them(monkeypatch):
    def refused(inputs, links):
        raise AssertionError("a tree without .java links was checked for them")

    monkeypatch.setattr(pipeline, "_without_repeated_links", refused)
    assert len(assert_lists_as_walk([FIXTURES])) > 20
