"""Tests for the analysis pipeline (:mod:`repro.analysis`)."""
