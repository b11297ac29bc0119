"""Classifier rules: suffix precedence, exclusions, static filter."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classaudit.classify import (
    DEFAULT_EXCLUSION_SUFFIXES,
    DEFAULT_UTILS_SUFFIXES,
    EXCLUDED_TO_DROP,
    GroupKind,
    GroupLabel,
    SuffixRules,
    classify,
    has_eror_tail,
    has_exclusion_suffix,
    has_utils_suffix,
    load_rules,
)

RULES = SuffixRules()


def kind(name, static=False, **kw):
    return classify(name, static, RULES, **kw).kind


def test_utils_suffix_examples():
    assert kind("StringUtils") is GroupKind.UTILS
    assert kind("IoUtil") is GroupKind.UTILS
    assert kind("MathUtilities") is GroupKind.UTILS
    assert kind("ParseUtility") is GroupKind.UTILS


def test_calculator_is_excluded_to_rest():
    assert kind("Calculator") is GroupKind.REST


def test_basic_eror():
    assert kind("TaskManager") is GroupKind.EROR
    assert kind("Visitor") is GroupKind.EROR


def test_color_not_eror():
    assert kind("Color") is GroupKind.REST


def test_static_member_drops_rest_only():
    label = classify("X", True, RULES)
    assert label.kind is GroupKind.DROPPED
    assert label.drop_reason == "static-member"
    # statics are kept for Utils and ErOr
    assert kind("StringUtils", static=True) is GroupKind.UTILS
    assert kind("TaskManager", static=True) is GroupKind.EROR


def test_excluded_name_with_static_drops():
    assert kind("Calculator", static=True) is GroupKind.DROPPED


def test_eror_tail_needs_preceding_character():
    assert kind("er") is GroupKind.REST
    assert kind("or") is GroupKind.REST
    assert kind("Xer") is GroupKind.EROR


def test_case_sensitive_tail():
    assert kind("HTTPSERVER") is GroupKind.REST
    assert kind("HttpServer") is GroupKind.EROR


def test_utils_wins_over_eror():
    # ends with "er"? no; but a name could end with both families
    assert kind("ColorUtils") is GroupKind.UTILS
    assert kind("ManagerUtil") is GroupKind.UTILS


def test_has_exclusion_suffix_examples():
    assert has_exclusion_suffix("HttpLogger", RULES)
    assert not has_exclusion_suffix("Retriever", RULES)


def test_every_exclusion_word_verbatim():
    for word in DEFAULT_EXCLUSION_SUFFIXES:
        assert has_exclusion_suffix(word, RULES)
        assert kind(word) is not GroupKind.EROR


def test_every_exclusion_word_with_prefix_never_eror():
    for word in DEFAULT_EXCLUSION_SUFFIXES:
        assert kind("My" + word) is not GroupKind.EROR


def test_exclusion_list_has_41_unique_entries():
    assert len(DEFAULT_EXCLUSION_SUFFIXES) == 41
    assert len(set(DEFAULT_EXCLUSION_SUFFIXES)) == 41


def test_excluded_to_drop_policy():
    label = classify("Calculator", False, RULES, excluded_to=EXCLUDED_TO_DROP)
    assert label.kind is GroupKind.DROPPED
    assert label.drop_reason == "excluded-name"
    # non-excluded names unaffected by the policy
    assert classify("TaskManager", False, RULES, excluded_to=EXCLUDED_TO_DROP).kind is GroupKind.EROR
    assert classify("Widget", False, RULES, excluded_to=EXCLUDED_TO_DROP).kind is GroupKind.REST


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        classify("", False, RULES)


def _independent_expected(name, static):
    """Re-derivation of the decision table, kept deliberately separate."""
    if any(name.endswith(s) for s in DEFAULT_UTILS_SUFFIXES):
        return GroupKind.UTILS
    if (name.endswith("er") or name.endswith("or")) and len(name) > 2:
        if not any(name.endswith(s) for s in DEFAULT_EXCLUSION_SUFFIXES):
            return GroupKind.EROR
    if static:
        return GroupKind.DROPPED
    return GroupKind.REST


NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$"


def fuzz_names(count, seed=20240101):
    rng = random.Random(seed)
    tails = (
        "", "er", "or", "Er", "Or", "Utils", "Util", "Utilities", "Utility",
    ) + DEFAULT_EXCLUSION_SUFFIXES
    names = []
    for _ in range(count):
        stem_len = rng.randint(1, 12)
        stem = "".join(rng.choice(NAME_ALPHABET) for _ in range(stem_len))
        names.append(stem + rng.choice(tails))
    return names


def test_fuzz_partition_matches_independent_table():
    rng = random.Random(7)
    violations = 0
    for name in fuzz_names(10_000):
        static = rng.random() < 0.4
        label = classify(name, static, RULES)
        if label.kind is not _independent_expected(name, static):
            violations += 1
    assert violations == 0


@given(
    name=st.text(alphabet=NAME_ALPHABET, min_size=1, max_size=24),
    static=st.booleans(),
)
@settings(max_examples=500, deadline=None)
def test_partition_property(name, static):
    label = classify(name, static, RULES)
    assert label.kind in (GroupKind.UTILS, GroupKind.EROR, GroupKind.REST, GroupKind.DROPPED)
    assert (label.drop_reason is not None) == (label.kind is GroupKind.DROPPED)
    # Utils and ErOr predicates are mutually exclusive after precedence
    if has_utils_suffix(name, RULES):
        assert label.kind is GroupKind.UTILS
    elif has_eror_tail(name, RULES) and not has_exclusion_suffix(name, RULES):
        assert label.kind is GroupKind.EROR


def test_rules_file_roundtrip(tmp_path):
    rules_file = tmp_path / "rules.txt"
    rules_file.write_text(
        "# comment\n[utils]\nHelper\nKit\n\n[exclude]\nServer\nUser\n"
    )
    rules = load_rules(rules_file)
    assert rules.utils_suffixes == ("Helper", "Kit")
    assert rules.exclusion_suffixes == ("Server", "User")
    assert classify("StringHelper", False, rules).kind is GroupKind.UTILS
    assert classify("WebServer", False, rules).kind is GroupKind.REST
    assert classify("TaskManager", False, rules).kind is GroupKind.EROR


def test_rules_file_missing_sections_keep_defaults(tmp_path):
    rules_file = tmp_path / "rules.txt"
    rules_file.write_text("[utils]\nHelper\n")
    rules = load_rules(rules_file)
    assert rules.utils_suffixes == ("Helper",)
    assert rules.exclusion_suffixes == DEFAULT_EXCLUSION_SUFFIXES


def test_duplicate_exclusions_rejected():
    with pytest.raises(ValueError):
        SuffixRules(exclusion_suffixes=("Logger", "Logger"))


def test_suffix_lists_given_as_lists_classify_as_tuples():
    rules = SuffixRules(utils_suffixes=["Helper"], exclusion_suffixes=["Server"])
    assert rules.utils_suffixes == ("Helper",)
    assert classify("StringHelper", False, rules).kind is GroupKind.UTILS
    assert classify("WebServer", False, rules).kind is GroupKind.REST
    assert classify("TaskManager", False, rules).kind is GroupKind.EROR


def test_labels_and_rules_are_frozen_and_hashable():
    label = classify("TaskManager", False, RULES)
    assert label == GroupLabel(GroupKind.EROR) != GroupLabel(GroupKind.EROR, "x")
    assert {label: 1}[GroupLabel(GroupKind.EROR)] == 1
    assert hash(SuffixRules(utils_suffixes=["Util"])) == hash(SuffixRules(("Util",)))
    assert repr(GroupLabel(GroupKind.DROPPED, "static-member")) == (
        "GroupLabel(kind=<GroupKind.DROPPED: 'Dropped'>, drop_reason='static-member')")
    for obj, name in ((label, "kind"), (label, "not_a_field"), (RULES, "utils_suffixes")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert label.kind is GroupKind.EROR and RULES.utils_suffixes == DEFAULT_UTILS_SUFFIXES
    for obj in (label, RULES):
        assert copy.deepcopy(obj) == pickle.loads(pickle.dumps(obj)) == obj
