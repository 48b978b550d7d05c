// lint.census fixture: float is banned in src/.
float gain = 1.0F;
