package main

func init() { _ = portable() }
