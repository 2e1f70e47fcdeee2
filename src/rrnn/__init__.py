"""Recurrent cells whose input and hidden weight matrices are overlapping
views into one shared parameter pool, with exact parameter accounting,
truncated-BPTT training and language-model evaluation."""
